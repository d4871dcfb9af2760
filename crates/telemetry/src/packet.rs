//! Packet-trace records — the fine-grained baseline data.

/// Which way a packet travels, from the client's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → server.
    Up,
    /// Server → client.
    Down,
}

/// One captured packet.
///
/// Compact on purpose: an ISP-scale trace holds billions of these, and the
/// paper's memory-overhead argument (Table 4 discussion) is about exactly
/// this record volume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    /// Capture timestamp, seconds from session start.
    pub ts_s: f64,
    /// Direction of travel.
    pub dir: Direction,
    /// On-the-wire size in bytes (headers + payload).
    pub size_bytes: u32,
    /// True if this is a TCP retransmission.
    pub is_retransmission: bool,
    /// Round-trip-time sample in milliseconds, when this packet produced one
    /// (SYN/ACK or TSecr-style measurement).
    pub rtt_ms: Option<f64>,
}

/// An append-only packet capture for one session.
#[derive(Debug, Clone, Default)]
pub struct PacketCapture {
    records: Vec<PacketRecord>,
    dropped: usize,
}

impl PacketCapture {
    /// Empty capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a packet. A packet with a negative or non-finite timestamp
    /// is dropped and counted in [`PacketCapture::dropped`] instead, so
    /// every stored timestamp is finite and non-negative.
    pub fn push(&mut self, rec: PacketRecord) {
        if rec.ts_s.is_finite() && rec.ts_s >= 0.0 {
            self.records.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// Packets refused by [`PacketCapture::push`] for a bad timestamp.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// All records in insertion order.
    pub fn records(&self) -> &[PacketRecord] {
        &self.records
    }

    /// Number of captured packets.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Sort records by timestamp (captures from multiple connections are
    /// merged out of order).
    pub fn sort_by_time(&mut self) {
        self.records.sort_by(|a, b| a.ts_s.total_cmp(&b.ts_s));
    }

    /// Total bytes by direction: `(uplink, downlink)`.
    pub fn byte_totals(&self) -> (u64, u64) {
        let mut up = 0u64;
        let mut down = 0u64;
        for r in &self.records {
            match r.dir {
                Direction::Up => up += u64::from(r.size_bytes),
                Direction::Down => down += u64::from(r.size_bytes),
            }
        }
        (up, down)
    }

    /// Count of retransmitted packets.
    pub fn retransmission_count(&self) -> usize {
        self.records.iter().filter(|r| r.is_retransmission).count()
    }

    /// All RTT samples in milliseconds, capture order.
    pub fn rtt_samples_ms(&self) -> Vec<f64> {
        self.records.iter().filter_map(|r| r.rtt_ms).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(ts: f64, dir: Direction, size: u32) -> PacketRecord {
        PacketRecord { ts_s: ts, dir, size_bytes: size, is_retransmission: false, rtt_ms: None }
    }

    #[test]
    fn totals_split_by_direction() {
        let mut cap = PacketCapture::new();
        cap.push(pkt(0.0, Direction::Up, 100));
        cap.push(pkt(0.1, Direction::Down, 1500));
        cap.push(pkt(0.2, Direction::Down, 1500));
        assert_eq!(cap.byte_totals(), (100, 3000));
        assert_eq!(cap.len(), 3);
    }

    #[test]
    fn sort_orders_by_time() {
        let mut cap = PacketCapture::new();
        cap.push(pkt(2.0, Direction::Up, 1));
        cap.push(pkt(1.0, Direction::Up, 2));
        cap.sort_by_time();
        assert_eq!(cap.records()[0].size_bytes, 2);
    }

    #[test]
    fn retransmissions_and_rtts_counted() {
        let mut cap = PacketCapture::new();
        let mut p = pkt(0.0, Direction::Down, 1500);
        p.is_retransmission = true;
        p.rtt_ms = Some(42.0);
        cap.push(p);
        cap.push(pkt(0.1, Direction::Down, 1500));
        assert_eq!(cap.retransmission_count(), 1);
        assert_eq!(cap.rtt_samples_ms(), vec![42.0]);
    }

    #[test]
    fn bad_timestamps_are_dropped_and_counted() {
        let mut cap = PacketCapture::new();
        cap.push(pkt(-1.0, Direction::Up, 1));
        cap.push(pkt(f64::NAN, Direction::Up, 2));
        cap.push(pkt(f64::INFINITY, Direction::Down, 3));
        cap.push(pkt(0.5, Direction::Down, 4));
        assert_eq!(cap.len(), 1);
        assert_eq!(cap.dropped(), 3);
        assert_eq!(cap.records()[0].size_bytes, 4);
        cap.sort_by_time();
        assert_eq!(cap.byte_totals(), (0, 4));
    }

    #[test]
    fn record_is_compact() {
        // The memory-overhead experiment depends on this staying small.
        assert!(std::mem::size_of::<PacketRecord>() <= 40);
    }
}
