//! An independent check of every probe the engine sends.
//!
//! The recording pass hands each sent frame to [`TxOracle`]. It parses
//! the frame with its own header code and holds it to the plan: an
//! Ethernet frame of the scan's family carrying a TCP SYN, a valid IPv4
//! header checksum, a valid TCP checksum, and a destination that is one
//! of the plan's targets. It then answers the probe with a SYN-ACK built
//! here (addresses and ports swapped, `ack = seq + 1`) and requires the
//! scanner's own validator to accept that answer for the same target, so
//! a probe whose cookie is wrong fails. At the end every target must
//! have been probed exactly `probes_per_target` times.
//!
//! Every workload scans TCP SYN; any other probe kind is refused.

use std::cmp::Ordering;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use zmap_core::plan::{AnyProbeBuilder, ScanPlan};
use zmap_core::ScanConfig;

const ETH: usize = 14;
const TCP_PROTO: u8 = 6;
const SYN: u8 = 0x02;
const SYN_ACK: u8 = 0x12;

/// Ones'-complement sum of `data` as big-endian 16-bit words, added to
/// `acc` (RFC 1071).
fn ones_sum(data: &[u8], mut acc: u64) -> u64 {
    let mut words = data.chunks_exact(2);
    for w in &mut words {
        acc += u64::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [last] = words.remainder() {
        acc += u64::from(*last) << 8;
    }
    acc
}

/// Folds a ones'-complement sum and complements it: the checksum field
/// value for `acc`, or 0 when `acc` already covers a valid checksum.
fn fold(mut acc: u64) -> u16 {
    while acc >> 16 != 0 {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    !(acc as u16)
}

/// Where a probe's parts sit in its frame.
struct Probe {
    dst: IpAddr,
    /// Offset of the TCP header.
    l4: usize,
    /// Offset of the end of the IP packet (Ethernet padding may follow).
    end: usize,
    /// Pseudo-header sum for the TCP checksum.
    pseudo: u64,
}

/// Parses the IP layer of a v4 or v6 probe and checks its lengths and
/// (v4) header checksum.
fn parse_ip(frame: &[u8], v6: bool) -> Result<Probe, String> {
    if frame.len() < ETH {
        return Err(format!("{}-byte frame", frame.len()));
    }
    let ip = &frame[ETH..];
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if v6 {
        if ethertype != 0x86DD || ip.len() < 40 || ip[0] >> 4 != 6 {
            return Err("not an IPv6 frame".into());
        }
        let payload = usize::from(u16::from_be_bytes([ip[4], ip[5]]));
        if ip[6] != TCP_PROTO || ip.len() < 40 + payload {
            return Err(format!(
                "IPv6 next header {} or payload length {payload}",
                ip[6]
            ));
        }
        let src = &ip[8..24];
        let dst = &ip[24..40];
        let mut pseudo = ones_sum(src, 0);
        pseudo = ones_sum(dst, pseudo);
        pseudo += payload as u64 + u64::from(TCP_PROTO);
        let dst: [u8; 16] = dst.try_into().expect("16-byte slice");
        Ok(Probe {
            dst: IpAddr::V6(Ipv6Addr::from(dst)),
            l4: ETH + 40,
            end: ETH + 40 + payload,
            pseudo,
        })
    } else {
        if ethertype != 0x0800 || ip.len() < 20 || ip[0] >> 4 != 4 {
            return Err("not an IPv4 frame".into());
        }
        let ihl = usize::from(ip[0] & 0x0F) * 4;
        let total = usize::from(u16::from_be_bytes([ip[2], ip[3]]));
        if ihl < 20 || total < ihl || total > ip.len() || ip[9] != TCP_PROTO {
            return Err(format!(
                "IPv4 header length {ihl}, total length {total} of {}, protocol {}",
                ip.len(),
                ip[9]
            ));
        }
        if fold(ones_sum(&ip[..ihl], 0)) != 0 {
            return Err("bad IPv4 header checksum".into());
        }
        let mut pseudo = ones_sum(&ip[12..20], 0);
        pseudo += (total - ihl) as u64 + u64::from(TCP_PROTO);
        Ok(Probe {
            dst: IpAddr::V4(Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19])),
            l4: ETH + ihl,
            end: ETH + total,
            pseudo,
        })
    }
}

/// Checks the sent frames of one scan against its plan.
pub struct TxOracle {
    plan: ScanPlan,
    builder: AnyProbeBuilder,
    v6: bool,
    probes_per_target: u64,
    /// Dedup key of every probe's destination, in send order.
    keys: Vec<u64>,
    /// Frames that failed a check.
    bad: u64,
    first_error: Option<String>,
    /// Reused buffer for the synthesized SYN-ACK.
    reply: Vec<u8>,
}

impl TxOracle {
    /// An oracle for scans of `cfg`.
    pub fn new(cfg: &ScanConfig) -> Result<TxOracle, String> {
        Ok(TxOracle {
            plan: ScanPlan::build(cfg, None).map_err(|e| e.to_string())?,
            builder: AnyProbeBuilder::build(cfg),
            v6: cfg.ipv6.is_some(),
            probes_per_target: u64::from(cfg.probes_per_target),
            keys: Vec::new(),
            bad: 0,
            first_error: None,
            reply: Vec::new(),
        })
    }

    /// Checks one sent frame.
    pub fn frame(&mut self, frame: &[u8]) {
        if let Err(e) = self.check(frame) {
            self.bad += 1;
            self.first_error.get_or_insert(e);
        }
    }

    fn check(&mut self, frame: &[u8]) -> Result<(), String> {
        let p = parse_ip(frame, self.v6)?;
        let tcp = &frame[p.l4..p.end];
        if tcp.len() < 20 || usize::from(tcp[12] >> 4) * 4 > tcp.len() {
            return Err(format!("{}-byte TCP segment", tcp.len()));
        }
        if tcp[13] != SYN {
            return Err(format!("TCP flags {:#04x}, not a SYN", tcp[13]));
        }
        if fold(ones_sum(tcp, p.pseudo)) != 0 {
            return Err(format!("bad TCP checksum to {}", p.dst));
        }
        let port = u16::from_be_bytes([tcp[2], tcp[3]]);
        let key = self
            .plan
            .probe_key(p.dst, port)
            .map_err(|e| format!("probe to {}:{port} outside the plan: {e}", p.dst))?;
        self.keys.push(key);

        self.syn_ack(&frame[..p.end], p.l4);
        match self.builder.parse_response(&self.reply) {
            Ok(Some(r)) if r.ip == p.dst && r.port == port => Ok(()),
            Ok(Some(r)) => Err(format!(
                "SYN-ACK from {}:{port} validated as {}:{}",
                p.dst, r.ip, r.port
            )),
            Ok(None) => Err(format!(
                "SYN-ACK from {}:{port} failed cookie validation",
                p.dst
            )),
            Err(e) => Err(format!("SYN-ACK from {}:{port} did not parse: {e}", p.dst)),
        }
    }

    /// Builds in `self.reply` the SYN-ACK a live host sends back to the
    /// probe `frame` (without padding) whose TCP header starts at `l4`.
    fn syn_ack(&mut self, frame: &[u8], l4: usize) {
        let r = &mut self.reply;
        r.clear();
        r.extend_from_slice(frame);
        r[..6].copy_from_slice(&frame[6..12]);
        r[6..12].copy_from_slice(&frame[..6]);
        let tcp_len = r.len() - l4;
        let pseudo = if self.v6 {
            r[ETH + 8..ETH + 24].copy_from_slice(&frame[ETH + 24..ETH + 40]);
            r[ETH + 24..ETH + 40].copy_from_slice(&frame[ETH + 8..ETH + 24]);
            r[ETH + 7] = 57;
            ones_sum(&r[ETH + 8..ETH + 40], tcp_len as u64 + u64::from(TCP_PROTO))
        } else {
            r[ETH + 12..ETH + 16].copy_from_slice(&frame[ETH + 16..ETH + 20]);
            r[ETH + 16..ETH + 20].copy_from_slice(&frame[ETH + 12..ETH + 16]);
            r[ETH + 8] = 57;
            r[ETH + 10..ETH + 12].fill(0);
            let check = fold(ones_sum(&r[ETH..l4], 0));
            r[ETH + 10..ETH + 12].copy_from_slice(&check.to_be_bytes());
            ones_sum(
                &r[ETH + 12..ETH + 20],
                tcp_len as u64 + u64::from(TCP_PROTO),
            )
        };
        let tcp = &mut r[l4..];
        let (sport, dport) = ([tcp[0], tcp[1]], [tcp[2], tcp[3]]);
        tcp[..2].copy_from_slice(&dport);
        tcp[2..4].copy_from_slice(&sport);
        let seq = u32::from_be_bytes([tcp[4], tcp[5], tcp[6], tcp[7]]);
        tcp[4..8].copy_from_slice(&0x5EED_0001u32.to_be_bytes());
        tcp[8..12].copy_from_slice(&seq.wrapping_add(1).to_be_bytes());
        tcp[13] = SYN_ACK;
        tcp[16..18].fill(0);
        let check = fold(ones_sum(tcp, pseudo));
        tcp[16..18].copy_from_slice(&check.to_be_bytes());
    }

    /// Ends the check: every frame passed, and every target was probed
    /// exactly `probes_per_target` times. On failure: how many probes
    /// are at fault, and why.
    pub fn finish(mut self) -> Result<(), (u64, String)> {
        if let Some(e) = self.first_error {
            let why = format!("{} sent frames failed the TX check; first: {e}", self.bad);
            return Err((self.bad, why));
        }
        let ppt = self.probes_per_target as usize;
        let mut want = Vec::with_capacity(self.keys.len());
        for (ip, port) in self.plan.iter_shard(0, 0) {
            let key = self
                .plan
                .probe_key(ip, port)
                .map_err(|e| (1, e.to_string()))?;
            want.extend(std::iter::repeat_n(key, ppt));
        }
        want.sort_unstable();
        self.keys.sort_unstable();
        // Probes sent to spare or missing: the multiset difference.
        let (sent, mut i, mut j, mut off) = (&self.keys, 0, 0, 0u64);
        while i < want.len() && j < sent.len() {
            match want[i].cmp(&sent[j]) {
                Ordering::Equal => (i, j) = (i + 1, j + 1),
                Ordering::Less => (i, off) = (i + 1, off + 1),
                Ordering::Greater => (j, off) = (j + 1, off + 1),
            }
        }
        off += (want.len() - i + sent.len() - j) as u64;
        if off != 0 {
            let why = format!(
                "{} probes sent, but not {ppt} to each of the plan's {} targets",
                sent.len(),
                want.len() / ppt.max(1)
            );
            return Err((off, why));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_of_a_known_ipv4_header() {
        // RFC 1071 style example header; its checksum field is 0xB861.
        let mut h = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xC0, 0xA8,
            0x00, 0x01, 0xC0, 0xA8, 0x00, 0xC7,
        ];
        assert_eq!(fold(ones_sum(&h, 0)), 0xB861);
        h[10..12].copy_from_slice(&0xB861u16.to_be_bytes());
        assert_eq!(fold(ones_sum(&h, 0)), 0);
    }
}
