//! Per-channel traffic statistics — the raw material of Figs. 4 and 7.

use uvm_types::{Bytes, Duration, PAGE_SIZE};

/// Histogram of transfer counts keyed by exact transfer size.
///
/// Fig. 7 of the paper counts 4 KB transfers specifically; the harness
/// also uses the full histogram to explain bandwidth differences.
///
/// Stored as a flat list sorted by size rather than a tree map: a run
/// issues far fewer distinct sizes than transfers, so a binary search
/// is cheap, recording an already-seen size never allocates, and the
/// clone every engine snapshot takes stays as small as the list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransferSizeHistogram {
    /// `(size, count)` of every recorded size, ascending by size.
    counts: Vec<(Bytes, u64)>,
}

impl TransferSizeHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one transfer of `size`.
    pub fn record(&mut self, size: Bytes) {
        match self.slot(size) {
            Ok(i) => self.counts[i].1 += 1,
            Err(i) => self.counts.insert(i, (size, 1)),
        }
    }

    /// The position of `size` in the sorted list, or where it belongs.
    fn slot(&self, size: Bytes) -> Result<usize, usize> {
        self.counts.binary_search_by_key(&size, |&(s, _)| s)
    }

    /// Number of transfers of exactly `size`.
    pub fn count(&self, size: Bytes) -> u64 {
        self.slot(size).map_or(0, |i| self.counts[i].1)
    }

    /// Number of transfers that were a single 4 KB page.
    pub fn count_4kib(&self) -> u64 {
        self.count(PAGE_SIZE)
    }

    /// Total number of transfers of any size.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&(_, c)| c).sum()
    }

    /// Iterates over `(size, count)` pairs in increasing size order.
    pub fn iter(&self) -> impl Iterator<Item = (Bytes, u64)> + '_ {
        self.counts.iter().copied()
    }

    /// Serializes the histogram for a checkpoint (sizes ascending, so
    /// the encoding is canonical).
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        w.put_usize(self.counts.len());
        for &(size, count) in &self.counts {
            w.put_u64(size.bytes());
            w.put_u64(count);
        }
    }

    /// Rebuilds a histogram from a [`save_state`](Self::save_state)
    /// image.
    pub fn load_state(
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<Self, uvm_types::codec::CodecError> {
        let n = r.get_usize()?;
        let mut h = TransferSizeHistogram::new();
        for _ in 0..n {
            let size = Bytes::new(r.get_u64()?);
            let count = r.get_u64()?;
            match h.slot(size) {
                Ok(i) => h.counts[i].1 = count,
                Err(i) => h.counts.insert(i, (size, count)),
            }
        }
        Ok(h)
    }
}

/// Aggregate statistics for one direction of the PCI-e link.
#[derive(Clone, Debug, Default)]
pub struct ChannelStats {
    /// Total payload bytes moved.
    pub bytes: Bytes,
    /// Cycles during which the channel was actively transferring.
    pub busy: Duration,
    /// Histogram of transfer sizes.
    pub histogram: TransferSizeHistogram,
    /// Injected-fault replays paid across all transfers (zero unless
    /// the channel was armed with transfer faults).
    pub retries: u64,
    /// Transfers whose replay budget ran out.
    pub giveups: u64,
}

impl ChannelStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed transfer.
    pub fn record(&mut self, size: Bytes, time: Duration) {
        self.bytes += size;
        self.busy += time;
        self.histogram.record(size);
    }

    /// Average achieved bandwidth in GB/s over the channel's *busy*
    /// time — the quantity Fig. 4 plots. Returns 0 for an idle channel.
    pub fn average_bandwidth_gbps(&self) -> f64 {
        if self.busy == Duration::ZERO {
            0.0
        } else {
            self.bytes.as_gb() / self.busy.as_secs()
        }
    }

    /// Total number of transfers.
    pub fn transfers(&self) -> u64 {
        self.histogram.total()
    }

    /// Serializes the statistics for a checkpoint.
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        w.put_u64(self.bytes.bytes());
        w.put_u64(self.busy.cycles());
        self.histogram.save_state(w);
        w.put_u64(self.retries);
        w.put_u64(self.giveups);
    }

    /// Rebuilds statistics from a [`save_state`](Self::save_state)
    /// image.
    pub fn load_state(
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<Self, uvm_types::codec::CodecError> {
        Ok(ChannelStats {
            bytes: Bytes::new(r.get_u64()?),
            busy: Duration::from_cycles(r.get_u64()?),
            histogram: TransferSizeHistogram::load_state(r)?,
            retries: r.get_u64()?,
            giveups: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_by_size() {
        let mut h = TransferSizeHistogram::new();
        h.record(PAGE_SIZE);
        h.record(PAGE_SIZE);
        h.record(Bytes::kib(64));
        assert_eq!(h.count_4kib(), 2);
        assert_eq!(h.count(Bytes::kib(64)), 1);
        assert_eq!(h.count(Bytes::kib(128)), 0);
        assert_eq!(h.total(), 3);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(PAGE_SIZE, 2), (Bytes::kib(64), 1)]);
    }

    /// Sizes recorded out of order come back ascending, and the
    /// checkpoint image round-trips.
    #[test]
    fn histogram_sorts_sizes_and_round_trips() {
        let mut h = TransferSizeHistogram::new();
        for size in [
            Bytes::mib(4),
            Bytes::kib(8),
            Bytes::new(100),
            Bytes::mib(2),
            Bytes::new(4097),
            Bytes::kib(8),
        ] {
            h.record(size);
        }
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(
            pairs,
            vec![
                (Bytes::new(100), 1),
                (Bytes::new(4097), 1),
                (Bytes::kib(8), 2),
                (Bytes::mib(2), 1),
                (Bytes::mib(4), 1),
            ]
        );
        assert_eq!(h.total(), 6);
        let mut w = uvm_types::codec::ByteWriter::new();
        h.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = uvm_types::codec::ByteReader::new(&bytes);
        assert_eq!(TransferSizeHistogram::load_state(&mut r).unwrap(), h);
    }

    #[test]
    fn average_bandwidth() {
        let mut s = ChannelStats::new();
        assert_eq!(s.average_bandwidth_gbps(), 0.0);
        // 1e9 bytes in one second of busy time = 1 GB/s.
        s.record(Bytes::new(1_000_000_000), Duration::from_secs(1.0));
        assert!((s.average_bandwidth_gbps() - 1.0).abs() < 1e-9);
        assert_eq!(s.transfers(), 1);
    }

    #[test]
    fn record_accumulates() {
        let mut s = ChannelStats::new();
        s.record(Bytes::kib(4), Duration::from_cycles(10));
        s.record(Bytes::kib(60), Duration::from_cycles(20));
        assert_eq!(s.bytes, Bytes::kib(64));
        assert_eq!(s.busy, Duration::from_cycles(30));
        assert_eq!(s.histogram.count_4kib(), 1);
    }
}
