// Fixture: D7 — datapath handlers reaching the telemetry plumbing
// directly instead of through HandlerCtx. Expect D7 (error) twice on
// line 7, twice on line 8, and once on line 11.

impl Cluster {
    fn be_handle_tx(&mut self, ctx: &mut HandlerCtx, pkt: &Packet) {
        self.tel.inc(self.tel.misroutes);
        self.profiler().mark(TraceEventKind::Notify, self.tel.marker(pkt));
    }
    fn fe_handle_rx(cl: &Cluster, pkt: &Packet) {
        cl.profiler().event(TraceEvent::of(cl.now(), ServerId(0), pkt, TraceEventKind::Notify));
    }
}
