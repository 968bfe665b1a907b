//! Wire-format packet headers: Ethernet II, IPv4, TCP, UDP, VXLAN.
//!
//! Encoders write network byte order into a [`bytes::BufMut`]; decoders
//! parse from a byte slice and are strict (smoltcp-style): short buffers,
//! bad versions, and bad checksums are all errors, never silently ignored.
//!
//! Only the fields the vSwitch data plane actually consults are modeled;
//! options are not supported (mirroring smoltcp's documented IPv4 stance).

use crate::error::{CodecError, CodecResult};
use crate::five_tuple::{FiveTuple, IpProtocol};
use crate::{Ipv4Addr, MacAddr};
use bytes::BufMut;

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// Conventional VXLAN UDP destination port.
pub const VXLAN_UDP_PORT: u16 = 4789;

/// The ones-complement Internet checksum (RFC 1071) over `data`.
///
/// Odd-length inputs are zero-padded on the right, per the RFC.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += u16::from_be_bytes([*last, 0]) as u32;
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Ethernet II frame header (14 bytes, no 802.1Q tags).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// EtherType of the payload.
    pub ethertype: u16,
}

impl EthernetHeader {
    /// Encoded size in bytes.
    pub const WIRE_LEN: usize = 14;

    /// Builds an IPv4 frame header.
    pub const fn ipv4(src: MacAddr, dst: MacAddr) -> Self {
        EthernetHeader {
            dst,
            src,
            ethertype: ETHERTYPE_IPV4,
        }
    }

    /// Serializes the header.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(&self.dst.0);
        buf.put_slice(&self.src.0);
        buf.put_u16(self.ethertype);
    }

    /// Parses the header, returning it and the bytes consumed.
    pub fn decode(data: &[u8]) -> CodecResult<(Self, usize)> {
        if data.len() < Self::WIRE_LEN {
            return Err(CodecError::Truncated {
                what: "ethernet",
                need: Self::WIRE_LEN,
                have: data.len(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        src.copy_from_slice(&data[6..12]);
        let ethertype = u16::from_be_bytes([data[12], data[13]]);
        Ok((
            EthernetHeader {
                dst: MacAddr(dst),
                src: MacAddr(src),
                ethertype,
            },
            Self::WIRE_LEN,
        ))
    }
}

/// IPv4 header (20 bytes; options unsupported).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ipv4Header {
    /// Differentiated services byte (QoS class selectors).
    pub dscp_ecn: u8,
    /// Total length of the IP datagram (header + payload).
    pub total_len: u16,
    /// Identification (unused by the data plane; retained for fidelity).
    pub ident: u16,
    /// Time to live; decremented per routed hop.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: IpProtocol,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Encoded size in bytes (no options).
    pub const WIRE_LEN: usize = 20;
    /// Default TTL, matching smoltcp's configurable default of 64.
    pub const DEFAULT_TTL: u8 = 64;

    /// Builds a header for `payload_len` bytes of L4 payload.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload_len: usize) -> Self {
        Ipv4Header {
            dscp_ecn: 0,
            total_len: (Self::WIRE_LEN + payload_len) as u16,
            ident: 0,
            ttl: Self::DEFAULT_TTL,
            protocol,
            src,
            dst,
        }
    }

    /// Serializes the header, computing the header checksum.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        let mut raw = [0u8; Self::WIRE_LEN];
        raw[0] = 0x45; // version 4, IHL 5
        raw[1] = self.dscp_ecn;
        raw[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        raw[4..6].copy_from_slice(&self.ident.to_be_bytes());
        // flags + fragment offset: DF set, never fragmented in our overlay.
        raw[6] = 0x40;
        raw[8] = self.ttl;
        raw[9] = self.protocol.as_u8();
        raw[12..16].copy_from_slice(&self.src.octets());
        raw[16..20].copy_from_slice(&self.dst.octets());
        let csum = internet_checksum(&raw);
        raw[10..12].copy_from_slice(&csum.to_be_bytes());
        buf.put_slice(&raw);
    }

    /// Parses and validates the header (version, IHL, checksum, protocol).
    pub fn decode(data: &[u8]) -> CodecResult<(Self, usize)> {
        if data.len() < Self::WIRE_LEN {
            return Err(CodecError::Truncated {
                what: "ipv4",
                need: Self::WIRE_LEN,
                have: data.len(),
            });
        }
        if data[0] >> 4 != 4 {
            return Err(CodecError::BadField {
                what: "ipv4",
                field: "version",
                value: (data[0] >> 4) as u64,
            });
        }
        let ihl = (data[0] & 0x0f) as usize * 4;
        if ihl != Self::WIRE_LEN {
            // Options unsupported, as documented.
            return Err(CodecError::BadField {
                what: "ipv4",
                field: "ihl",
                value: ihl as u64,
            });
        }
        let got = u16::from_be_bytes([data[10], data[11]]);
        let mut zeroed = [0u8; Self::WIRE_LEN];
        zeroed.copy_from_slice(&data[..Self::WIRE_LEN]);
        zeroed[10] = 0;
        zeroed[11] = 0;
        let want = internet_checksum(&zeroed);
        if got != want {
            return Err(CodecError::BadChecksum {
                what: "ipv4",
                got,
                want,
            });
        }
        let protocol = IpProtocol::from_u8(data[9]).ok_or(CodecError::BadField {
            what: "ipv4",
            field: "protocol",
            value: data[9] as u64,
        })?;
        let total_len = u16::from_be_bytes([data[2], data[3]]);
        if (total_len as usize) < Self::WIRE_LEN {
            return Err(CodecError::BadLength {
                what: "ipv4",
                claimed: total_len as usize,
                available: data.len(),
            });
        }
        Ok((
            Ipv4Header {
                dscp_ecn: data[1],
                total_len,
                ident: u16::from_be_bytes([data[4], data[5]]),
                ttl: data[8],
                protocol,
                src: Ipv4Addr::from_octets([data[12], data[13], data[14], data[15]]),
                dst: Ipv4Addr::from_octets([data[16], data[17], data[18], data[19]]),
            },
            Self::WIRE_LEN,
        ))
    }
}

/// A minimal local reimplementation of the parts of `bitflags` we need,
/// avoiding an extra dependency for one type.
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $( $(#[$fmeta:meta])* const $flag:ident = $val:expr; )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
        pub struct $name(pub $ty);

        impl $name {
            $( $(#[$fmeta])* pub const $flag: $name = $name($val); )*

            /// The empty flag set.
            pub const fn empty() -> Self { $name(0) }

            /// True if every bit of `other` is set in `self`.
            pub const fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }

            /// True if any bit of `other` is set in `self`.
            pub const fn intersects(self, other: $name) -> bool {
                self.0 & other.0 != 0
            }
        }

        impl std::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name { $name(self.0 | rhs.0) }
        }
    };
}

bitflags_lite! {
    /// TCP header flags (the subset connection tracking consults).
    pub struct TcpFlags: u8 {
        /// FIN: sender is finished.
        const FIN = 0x01;
        /// SYN: synchronize sequence numbers.
        const SYN = 0x02;
        /// RST: reset the connection.
        const RST = 0x04;
        /// PSH: push buffered data.
        const PSH = 0x08;
        /// ACK: acknowledgment field valid.
        const ACK = 0x10;
    }
}

/// TCP header (20 bytes; options elided — MSS etc. are not consulted by the
/// vSwitch, only by endpoints which the simulator models abstractly).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
}

impl TcpHeader {
    /// Encoded size in bytes (no options).
    pub const WIRE_LEN: usize = 20;

    /// Serializes the header. The transport checksum is computed over the
    /// header with a zero payload pseudo-contribution; the simulator treats
    /// payloads as opaque length so this is sufficient for validation.
    pub fn encode<B: BufMut>(&self, buf: &mut B, src_ip: Ipv4Addr, dst_ip: Ipv4Addr) {
        let mut raw = [0u8; Self::WIRE_LEN];
        raw[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        raw[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        raw[4..8].copy_from_slice(&self.seq.to_be_bytes());
        raw[8..12].copy_from_slice(&self.ack.to_be_bytes());
        raw[12] = 5 << 4; // data offset = 5 words
        raw[13] = self.flags.0;
        raw[14..16].copy_from_slice(&self.window.to_be_bytes());
        let csum = Self::checksum(&raw, src_ip, dst_ip);
        raw[16..18].copy_from_slice(&csum.to_be_bytes());
        buf.put_slice(&raw);
    }

    fn checksum(raw: &[u8; Self::WIRE_LEN], src_ip: Ipv4Addr, dst_ip: Ipv4Addr) -> u16 {
        let mut pseudo = Vec::with_capacity(12 + Self::WIRE_LEN);
        pseudo.extend_from_slice(&src_ip.octets());
        pseudo.extend_from_slice(&dst_ip.octets());
        pseudo.push(0);
        pseudo.push(IpProtocol::Tcp.as_u8());
        pseudo.extend_from_slice(&(Self::WIRE_LEN as u16).to_be_bytes());
        pseudo.extend_from_slice(raw);
        internet_checksum(&pseudo)
    }

    /// Parses and validates the header.
    pub fn decode(data: &[u8], src_ip: Ipv4Addr, dst_ip: Ipv4Addr) -> CodecResult<(Self, usize)> {
        if data.len() < Self::WIRE_LEN {
            return Err(CodecError::Truncated {
                what: "tcp",
                need: Self::WIRE_LEN,
                have: data.len(),
            });
        }
        let offset = (data[12] >> 4) as usize * 4;
        if offset != Self::WIRE_LEN {
            return Err(CodecError::BadField {
                what: "tcp",
                field: "data_offset",
                value: offset as u64,
            });
        }
        let mut raw = [0u8; Self::WIRE_LEN];
        raw.copy_from_slice(&data[..Self::WIRE_LEN]);
        let got = u16::from_be_bytes([raw[16], raw[17]]);
        raw[16] = 0;
        raw[17] = 0;
        let want = Self::checksum(&raw, src_ip, dst_ip);
        if got != want {
            return Err(CodecError::BadChecksum {
                what: "tcp",
                got,
                want,
            });
        }
        Ok((
            TcpHeader {
                src_port: u16::from_be_bytes([data[0], data[1]]),
                dst_port: u16::from_be_bytes([data[2], data[3]]),
                seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
                ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
                flags: TcpFlags(data[13]),
                window: u16::from_be_bytes([data[14], data[15]]),
            },
            Self::WIRE_LEN,
        ))
    }
}

/// UDP header (8 bytes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of header plus payload.
    pub length: u16,
}

impl UdpHeader {
    /// Encoded size in bytes.
    pub const WIRE_LEN: usize = 8;

    /// Builds a header for `payload_len` bytes of payload.
    pub fn new(src_port: u16, dst_port: u16, payload_len: usize) -> Self {
        UdpHeader {
            src_port,
            dst_port,
            length: (Self::WIRE_LEN + payload_len) as u16,
        }
    }

    /// Serializes the header (checksum 0 = disabled, legal for IPv4 UDP).
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16(self.length);
        buf.put_u16(0);
    }

    /// Parses the header and validates its length field.
    pub fn decode(data: &[u8]) -> CodecResult<(Self, usize)> {
        if data.len() < Self::WIRE_LEN {
            return Err(CodecError::Truncated {
                what: "udp",
                need: Self::WIRE_LEN,
                have: data.len(),
            });
        }
        let length = u16::from_be_bytes([data[4], data[5]]);
        if (length as usize) < Self::WIRE_LEN || (length as usize) > data.len() {
            return Err(CodecError::BadLength {
                what: "udp",
                claimed: length as usize,
                available: data.len(),
            });
        }
        Ok((
            UdpHeader {
                src_port: u16::from_be_bytes([data[0], data[1]]),
                dst_port: u16::from_be_bytes([data[2], data[3]]),
                length,
            },
            Self::WIRE_LEN,
        ))
    }
}

/// VXLAN header (8 bytes, RFC 7348). The overlay encapsulation used between
/// vSwitches: outer IP/UDP addresses name *servers*, the VNI names the
/// tenant VPC.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VxlanHeader {
    /// 24-bit VXLAN network identifier. We map VNI = VPC id.
    pub vni: u32,
}

impl VxlanHeader {
    /// Encoded size in bytes.
    pub const WIRE_LEN: usize = 8;

    /// Serializes the header.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(0x08); // flags: I bit set (VNI valid)
        buf.put_u8(0);
        buf.put_u16(0);
        buf.put_u32(self.vni << 8);
    }

    /// Parses and validates the header (I bit must be set).
    pub fn decode(data: &[u8]) -> CodecResult<(Self, usize)> {
        if data.len() < Self::WIRE_LEN {
            return Err(CodecError::Truncated {
                what: "vxlan",
                need: Self::WIRE_LEN,
                have: data.len(),
            });
        }
        if data[0] & 0x08 == 0 {
            return Err(CodecError::BadField {
                what: "vxlan",
                field: "flags",
                value: data[0] as u64,
            });
        }
        let vni = u32::from_be_bytes([data[4], data[5], data[6], data[7]]) >> 8;
        Ok((VxlanHeader { vni }, Self::WIRE_LEN))
    }
}

/// Extracts a [`FiveTuple`] from a decoded IPv4 header plus its transport
/// header bytes. ICMP uses port 0/0.
pub fn five_tuple_of(ip: &Ipv4Header, l4: &[u8]) -> CodecResult<FiveTuple> {
    let (src_port, dst_port) = match ip.protocol {
        IpProtocol::Tcp => {
            let (t, _) = TcpHeader::decode(l4, ip.src, ip.dst)?;
            (t.src_port, t.dst_port)
        }
        IpProtocol::Udp => {
            let (u, _) = UdpHeader::decode(l4)?;
            (u.src_port, u.dst_port)
        }
        IpProtocol::Icmp => (0, 0),
    };
    Ok(FiveTuple {
        src_ip: ip.src,
        dst_ip: ip.dst,
        src_port,
        dst_port,
        protocol: ip.protocol,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 example-style check: checksum of a buffer plus its own
        // checksum folds to zero.
        let data = [0x45u8, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06];
        let c = internet_checksum(&data);
        let mut with = data.to_vec();
        with.extend_from_slice(&c.to_be_bytes());
        assert_eq!(internet_checksum(&with), 0);
    }

    #[test]
    fn checksum_odd_length() {
        assert_eq!(internet_checksum(&[0xff]), !0xff00u16);
    }

    #[test]
    fn ethernet_round_trip() {
        let h = EthernetHeader::ipv4(MacAddr::from_id(1), MacAddr::from_id(2));
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), EthernetHeader::WIRE_LEN);
        let (d, n) = EthernetHeader::decode(&buf).unwrap();
        assert_eq!(d, h);
        assert_eq!(n, EthernetHeader::WIRE_LEN);
    }

    #[test]
    fn ethernet_truncated() {
        assert!(matches!(
            EthernetHeader::decode(&[0u8; 5]),
            Err(CodecError::Truncated {
                what: "ethernet",
                ..
            })
        ));
    }

    #[test]
    fn ipv4_round_trip() {
        let h = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProtocol::Tcp,
            100,
        );
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let (d, n) = Ipv4Header::decode(&buf).unwrap();
        assert_eq!(n, Ipv4Header::WIRE_LEN);
        assert_eq!(d, h);
    }

    #[test]
    fn ipv4_rejects_corrupt_checksum() {
        let h = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProtocol::Udp,
            0,
        );
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let mut raw = buf.to_vec();
        raw[12] ^= 0xff; // flip a source-address byte
        assert!(matches!(
            Ipv4Header::decode(&raw),
            Err(CodecError::BadChecksum { what: "ipv4", .. })
        ));
    }

    #[test]
    fn ipv4_rejects_bad_version_and_options() {
        let h = Ipv4Header::new(Ipv4Addr(1), Ipv4Addr(2), IpProtocol::Tcp, 0);
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let mut raw = buf.to_vec();
        raw[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Header::decode(&raw),
            Err(CodecError::BadField {
                field: "version",
                ..
            })
        ));
        raw[0] = 0x46; // version 4, IHL 6 (options present)
        assert!(matches!(
            Ipv4Header::decode(&raw),
            Err(CodecError::BadField { field: "ihl", .. })
        ));
    }

    #[test]
    fn tcp_round_trip_and_checksum() {
        let src = Ipv4Addr::new(172, 16, 0, 1);
        let dst = Ipv4Addr::new(172, 16, 0, 2);
        let h = TcpHeader {
            src_port: 43210,
            dst_port: 80,
            seq: 0xdead_beef,
            ack: 0x0102_0304,
            flags: TcpFlags::SYN | TcpFlags::ACK,
            window: 65535,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf, src, dst);
        let (d, _) = TcpHeader::decode(&buf, src, dst).unwrap();
        assert_eq!(d, h);
        // A different pseudo-header address must fail the checksum. (Note:
        // merely *swapping* src/dst keeps the ones-complement sum identical,
        // so the altered address must change the word values.)
        assert!(TcpHeader::decode(&buf, Ipv4Addr::new(9, 9, 9, 9), dst).is_err());
    }

    #[test]
    fn tcp_flags_ops() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
        assert!(f.intersects(TcpFlags::SYN | TcpFlags::RST));
        assert!(!TcpFlags::empty().intersects(f));
    }

    #[test]
    fn udp_round_trip_and_bad_length() {
        let h = UdpHeader::new(1000, 2000, 32);
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        buf.put_slice(&[0u8; 32]);
        let (d, n) = UdpHeader::decode(&buf).unwrap();
        assert_eq!(d, h);
        assert_eq!(n, UdpHeader::WIRE_LEN);
        // Claimed length beyond the buffer is rejected.
        let mut raw = buf.to_vec();
        raw[4] = 0xff;
        raw[5] = 0xff;
        assert!(matches!(
            UdpHeader::decode(&raw),
            Err(CodecError::BadLength { what: "udp", .. })
        ));
    }

    #[test]
    fn vxlan_round_trip() {
        let h = VxlanHeader { vni: 0x00ab_cdef };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let (d, n) = VxlanHeader::decode(&buf).unwrap();
        assert_eq!(d.vni, 0x00ab_cdef);
        assert_eq!(n, VxlanHeader::WIRE_LEN);
    }

    #[test]
    fn vxlan_requires_i_bit() {
        let raw = [0u8; 8];
        assert!(matches!(
            VxlanHeader::decode(&raw),
            Err(CodecError::BadField { what: "vxlan", .. })
        ));
    }

    #[test]
    fn five_tuple_extraction_tcp_udp_icmp() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);

        let ip = Ipv4Header::new(src, dst, IpProtocol::Tcp, TcpHeader::WIRE_LEN);
        let t = TcpHeader {
            src_port: 5,
            dst_port: 6,
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 0,
        };
        let mut buf = BytesMut::new();
        t.encode(&mut buf, src, dst);
        let ft = five_tuple_of(&ip, &buf).unwrap();
        assert_eq!((ft.src_port, ft.dst_port), (5, 6));

        let ip = Ipv4Header::new(src, dst, IpProtocol::Udp, UdpHeader::WIRE_LEN);
        let mut buf = BytesMut::new();
        UdpHeader::new(7, 8, 0).encode(&mut buf);
        let ft = five_tuple_of(&ip, &buf).unwrap();
        assert_eq!((ft.src_port, ft.dst_port), (7, 8));

        let ip = Ipv4Header::new(src, dst, IpProtocol::Icmp, 0);
        let ft = five_tuple_of(&ip, &[]).unwrap();
        assert_eq!((ft.src_port, ft.dst_port), (0, 0));
    }
}
