//! Per-window feature summaries, the bounded buffer homes emit them
//! through, and the packed log a home keeps them in until the fleet's
//! stream pass reads them.

use crate::checkpoint::{CheckpointError, Reader, Writer};
use std::collections::VecDeque;
use std::fmt;

/// The index of each [`WindowSummary::features`] dimension. Every
/// feature is a delta over one window, computed from side-effect-free
/// home snapshots.
pub mod feature {
    /// Evidence records fused.
    pub const EVIDENCE: usize = 0;
    /// Device-layer evidence records.
    pub const DEVICE_EVIDENCE: usize = 1;
    /// Network-layer evidence records.
    pub const NETWORK_EVIDENCE: usize = 2;
    /// Service-layer evidence records.
    pub const SERVICE_EVIDENCE: usize = 3;
    /// Warning-severity alerts raised.
    pub const WARNINGS: usize = 4;
    /// Critical-severity alerts raised.
    pub const CRITICALS: usize = 5;
    /// Packets forwarded by the gateway.
    pub const FORWARDED: usize = 6;
    /// Packets dropped by the gateway.
    pub const DROPPED: usize = 7;
    /// Wire bytes observed on the home's links.
    pub const WIRE_BYTES: usize = 8;
    /// Packets observed on the home's links.
    pub const PACKETS: usize = 9;
}

/// Dimensions of a [`WindowSummary::features`] vector, indexed by the
/// constants of [`feature`].
pub const STREAM_FEATURES: usize = feature::PACKETS + 1;

/// One home's behaviour/evidence/verdict movement over one correlation
/// window (`window * interval` .. `(window + 1) * interval` simulated
/// seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// The emitting home's fleet id.
    pub home: u64,
    /// Zero-based window index — the epoch this summary belongs to.
    pub window: u64,
    /// True when the home truncated (degraded) before the horizon: this
    /// summary is part of an evidence *prefix*, not a full run.
    pub partial: bool,
    /// The per-window feature deltas (see [`STREAM_FEATURES`]).
    pub features: [f64; STREAM_FEATURES],
}

/// A bounded, shed-accounted buffer of window summaries. One home's
/// windows flow through one buffer on one worker thread, so shedding is
/// a deterministic function of the home's own behaviour — never of
/// scheduling. Overflow sheds the **oldest** window (the same
/// newest-intelligence-wins policy as the bounded evidence bus): an
/// online correlator would rather see the freshest picture of a home
/// than a stale prefix of it.
#[derive(Debug, Clone)]
pub struct WindowBuffer {
    cap: usize,
    shed: u64,
    windows: VecDeque<WindowSummary>,
}

impl WindowBuffer {
    /// Creates a buffer holding at most `cap` windows (`cap` is clamped
    /// to at least 1).
    pub fn new(cap: usize) -> Self {
        WindowBuffer {
            cap: cap.max(1),
            shed: 0,
            windows: VecDeque::new(),
        }
    }

    /// Pushes one window summary, shedding the oldest buffered window if
    /// the buffer is full.
    pub fn push(&mut self, summary: WindowSummary) {
        if self.windows.len() == self.cap {
            self.windows.pop_front();
            self.shed += 1;
        }
        self.windows.push_back(summary);
    }

    /// Windows shed so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Windows currently buffered.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Consumes the buffer into a [`WindowLog`] of its surviving windows
    /// (oldest first) and the shed count. A home keeps its log until the
    /// fleet's stream pass has run, so the log is packed into exactly the
    /// bytes its windows encode to: one allocation, sized by a first pass
    /// over the windows, with no growth slack to stay resident.
    pub fn into_parts(self) -> (WindowLog, u64) {
        let mut bytes = Vec::with_capacity(self.windows.iter().map(encoded_len).sum());
        for summary in &self.windows {
            encode(&mut bytes, summary);
        }
        (
            WindowLog {
                bytes: bytes.into_boxed_slice(),
            },
            self.shed,
        )
    }
}

/// Tag of a feature stored as its 8 raw bytes. An integer feature is
/// stored as the varint of `value << 1`, whose first byte is even, so
/// the two cannot be confused.
const RAW_F64: u8 = 1;

/// 2^63: integer features at or above it are stored raw, so `value << 1`
/// always fits a `u64`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// `x` as the integer it round-trips through bit for bit, if any: a
/// non-negative integer below 2^63 whose `u64 → f64` conversion gives
/// back `x`'s bits. −0.0, NaN, ±∞, fractions and negatives have none.
fn exact_u64(x: f64) -> Option<u64> {
    if !(0.0..TWO_POW_63).contains(&x) {
        return None;
    }
    let v = x as u64;
    ((v as f64).to_bits() == x.to_bits()).then_some(v)
}

/// Bytes of `v` as an LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads the varint at `bytes[*pos..]`, moving `pos` past it. The log's
/// bytes come only from [`put_varint`].
fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Bytes `summary` packs into: the home and window varints, the partial
/// byte, and each feature's varint or tagged raw bytes.
fn encoded_len(summary: &WindowSummary) -> usize {
    let features: usize = summary
        .features
        .iter()
        .map(|&x| exact_u64(x).map_or(1 + 8, |v| varint_len(v << 1)))
        .sum();
    varint_len(summary.home) + varint_len(summary.window) + 1 + features
}

fn encode(out: &mut Vec<u8>, summary: &WindowSummary) {
    put_varint(out, summary.home);
    put_varint(out, summary.window);
    out.push(u8::from(summary.partial));
    for &x in &summary.features {
        match exact_u64(x) {
            Some(v) => put_varint(out, v << 1),
            None => {
                out.push(RAW_F64);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
    }
}

/// One home's windows, oldest first, packed into exactly the bytes they
/// encode to. Each window is its home and window number as LEB128
/// varints, its `partial` byte, and its ten features. A feature that
/// round-trips through a `u64` below 2^63 bit for bit (every count and
/// byte delta a home emits) is the varint of twice its value; any other
/// (NaN payloads, −0.0, ±∞, fractions, negatives) is a tag byte and its
/// 8 raw bytes. Every window therefore decodes to its summary's exact
/// bits, at ~15 bytes a window on the fleet instead of a
/// [`WindowSummary`]'s 104.
///
/// The log is append-only and read front to back. The fleet's stream
/// pass reads it through a byte-offset cursor per home
/// ([`WindowLog::read_epoch`]), which relies on window numbers strictly
/// ascending within the log: a [`WindowBuffer`] numbers windows in order
/// and sheds from the front, and [`WindowLog::restore_from`] rejects a
/// log that breaks the order. An empty log allocates nothing.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct WindowLog {
    bytes: Box<[u8]>,
}

impl WindowLog {
    /// Appends one window. The log stays exactly sized: it grows by the
    /// window's encoded bytes and no more.
    pub fn push(&mut self, summary: &WindowSummary) {
        let mut bytes = std::mem::take(&mut self.bytes).into_vec();
        bytes.reserve_exact(encoded_len(summary));
        encode(&mut bytes, summary);
        self.bytes = bytes.into_boxed_slice();
    }

    /// Windows in the log. The log keeps no count, so this walks it.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the log holds no window.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Decodes every window, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = WindowSummary> + '_ {
        let mut pos = 0;
        std::iter::from_fn(move || (pos < self.bytes.len()).then(|| self.decode(&mut pos)))
    }

    /// The window numbered `epoch`, read through a home's cursor: the
    /// byte offset of the first window not yet read. Windows numbered
    /// below `epoch` (before a resume's first epoch) are skipped, and the
    /// cursor moves past them and past the window returned. A window
    /// numbered above `epoch` is left for its own epoch, so over
    /// ascending epochs each window is decoded once.
    pub fn read_epoch(&self, cursor: &mut usize, epoch: u64) -> Option<WindowSummary> {
        while *cursor < self.bytes.len() {
            let mut pos = *cursor;
            get_varint(&self.bytes, &mut pos);
            if get_varint(&self.bytes, &mut pos) > epoch {
                return None;
            }
            let summary = self.decode(cursor);
            if summary.window == epoch {
                return Some(summary);
            }
        }
        None
    }

    /// Decodes the window at `bytes[*pos..]`, moving `pos` past it.
    fn decode(&self, pos: &mut usize) -> WindowSummary {
        let bytes = &self.bytes;
        let home = get_varint(bytes, pos);
        let window = get_varint(bytes, pos);
        let partial = bytes[*pos] != 0;
        *pos += 1;
        let mut features = [0.0; STREAM_FEATURES];
        for x in &mut features {
            *x = if bytes[*pos] == RAW_F64 {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(&bytes[*pos + 1..*pos + 9]);
                *pos += 9;
                f64::from_bits(u64::from_le_bytes(raw))
            } else {
                (get_varint(bytes, pos) >> 1) as f64
            };
        }
        WindowSummary {
            home,
            window,
            partial,
            features,
        }
    }

    /// Appends the log to a run snapshot in the per-window layout: the
    /// window count, then each window's home, window number, `partial`
    /// flag and feature bits at fixed width. The packing is in memory
    /// only, so snapshot bytes do not depend on it.
    pub fn checkpoint_into(&self, w: &mut Writer) {
        w.usize(self.len());
        for summary in self.iter() {
            w.u64(summary.home);
            w.u64(summary.window);
            w.bool(summary.partial);
            for x in summary.features {
                w.f64(x);
            }
        }
    }

    /// Reads a log written by [`WindowLog::checkpoint_into`], packed
    /// exactly as a freshly run home's. Window numbers that do not
    /// strictly ascend are [`CheckpointError::WindowOrder`]: a stream
    /// pass cursor would read such a log out of order.
    pub fn restore_from(r: &mut Reader) -> Result<WindowLog, CheckpointError> {
        let n = r.usize()?;
        let mut last: Option<u64> = None;
        (0..n)
            .map(|_| {
                let home = r.u64()?;
                let window = r.u64()?;
                let partial = r.bool()?;
                let mut features = [0.0; STREAM_FEATURES];
                for x in &mut features {
                    *x = r.f64()?;
                }
                if last.is_some_and(|prev| window <= prev) {
                    return Err(CheckpointError::WindowOrder);
                }
                last = Some(window);
                Ok(WindowSummary {
                    home,
                    window,
                    partial,
                    features,
                })
            })
            .collect()
    }
}

/// Packs the windows in iteration order, trimmed to their exact size.
impl FromIterator<WindowSummary> for WindowLog {
    fn from_iter<I: IntoIterator<Item = WindowSummary>>(windows: I) -> Self {
        let mut bytes = Vec::new();
        for summary in windows {
            encode(&mut bytes, &summary);
        }
        WindowLog {
            bytes: bytes.into_boxed_slice(),
        }
    }
}

/// The decoded windows, not the packed bytes.
impl fmt::Debug for WindowLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn summary(home: u64, window: u64) -> WindowSummary {
        WindowSummary {
            home,
            window,
            partial: false,
            features: [window as f64; STREAM_FEATURES],
        }
    }

    #[test]
    fn buffer_keeps_everything_under_capacity() {
        let mut buf = WindowBuffer::new(8);
        for w in 0..5 {
            buf.push(summary(1, w));
        }
        let (log, shed) = buf.into_parts();
        assert_eq!(log.len(), 5);
        assert_eq!(shed, 0);
        assert_eq!(log.iter().next(), Some(summary(1, 0)));
    }

    #[test]
    fn overflow_sheds_oldest_first_and_counts() {
        let mut buf = WindowBuffer::new(3);
        for w in 0..7 {
            buf.push(summary(1, w));
        }
        assert_eq!(buf.shed(), 4);
        let (log, shed) = buf.into_parts();
        assert_eq!(shed, 4);
        let kept: Vec<u64> = log.iter().map(|s| s.window).collect();
        assert_eq!(kept, vec![4, 5, 6], "newest windows survive");
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut buf = WindowBuffer::new(0);
        buf.push(summary(1, 0));
        buf.push(summary(1, 1));
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.shed(), 1);
    }

    #[test]
    fn small_integer_features_pack_into_a_byte_each() {
        let mut log = WindowLog::default();
        assert!(log.is_empty());
        log.push(&summary(3, 5));
        // Home, window and partial take a byte each, and each feature
        // (5, stored as 10) one more.
        assert_eq!(log.bytes.len(), 3 + STREAM_FEATURES);
        let mut odd = summary(300, 6);
        odd.features[0] = -0.0;
        odd.features[1] = 0.5;
        log.push(&odd);
        assert_eq!(log.bytes.len(), 13 + 2 + 1 + 1 + 2 * 9 + 8);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn read_epoch_skips_earlier_windows_and_waits_for_later_ones() {
        let log: WindowLog = [2, 3, 5].map(|w| summary(9, w)).into_iter().collect();
        let mut cursor = 0;
        assert_eq!(log.read_epoch(&mut cursor, 1), None);
        assert_eq!(cursor, 0, "a later window stays unread");
        // A resume at epoch 3 skips window 2.
        assert_eq!(log.read_epoch(&mut cursor, 3), Some(summary(9, 3)));
        assert_eq!(log.read_epoch(&mut cursor, 4), None);
        assert_eq!(log.read_epoch(&mut cursor, 5), Some(summary(9, 5)));
        assert_eq!(cursor, log.bytes.len());
        assert_eq!(log.read_epoch(&mut cursor, 6), None);
    }

    /// The features a log must keep bit for bit: NaN payloads, ±0, ±∞,
    /// subnormals, the integers around 2^53 and 2^63, `u64::MAX as f64`
    /// (2^64), fractions and negatives; then integers of every magnitude
    /// and arbitrary bit patterns.
    fn feature() -> impl Strategy<Value = f64> {
        const POOL: [f64; 18] = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0xFFF8_0000_0000_0042),
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -2.225_073_858_507_201e-308,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            9_223_372_036_854_774_784.0,
            TWO_POW_63,
            u64::MAX as f64,
            0.5,
            -3.0,
        ];
        (0..3 * POOL.len(), any::<u64>(), 0u32..64).prop_map(|(pick, bits, shift)| {
            match pick.checked_sub(POOL.len()) {
                None => POOL[pick],
                Some(i) if i < POOL.len() => (bits >> shift) as f64,
                Some(_) => f64::from_bits(bits),
            }
        })
    }

    /// A home id or window number of any magnitude up to `u64::MAX`.
    fn number() -> impl Strategy<Value = u64> {
        (any::<u64>(), 0u32..64).prop_map(|(x, shift)| x >> shift)
    }

    fn window() -> impl Strategy<Value = WindowSummary> {
        (
            number(),
            number(),
            any::<bool>(),
            proptest::collection::vec(feature(), STREAM_FEATURES),
        )
            .prop_map(|(home, window, partial, features)| WindowSummary {
                home,
                window,
                partial,
                features: features.try_into().expect("STREAM_FEATURES features"),
            })
    }

    /// Bits of every field, so NaNs and signed zeros compare exactly.
    fn bits(s: &WindowSummary) -> (u64, u64, bool, [u64; STREAM_FEATURES]) {
        (s.home, s.window, s.partial, s.features.map(f64::to_bits))
    }

    /// The per-window snapshot layout the log's checkpoint must keep.
    fn per_window_layout(windows: &[WindowSummary]) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize(windows.len());
        for s in windows {
            w.u64(s.home);
            w.u64(s.window);
            w.bool(s.partial);
            for &x in &s.features {
                w.f64(x);
            }
        }
        w.into_bytes()
    }

    proptest! {
        /// Any sequence of windows, pushed one by one, decodes back bit
        /// for bit, and the log stays exactly sized. Renumbered to
        /// strictly ascending windows, it checkpoints into the per-window
        /// layout byte for byte and restores to the same log.
        #[test]
        fn window_log_round_trips_every_bit_pattern(
            mut windows in proptest::collection::vec(window(), 0..24),
        ) {
            let mut log = WindowLog::default();
            for s in &windows {
                log.push(s);
            }
            prop_assert_eq!(log.bytes.len(), windows.iter().map(encoded_len).sum::<usize>());
            prop_assert_eq!(log.len(), windows.len());
            let decoded: Vec<_> = log.iter().map(|s| bits(&s)).collect();
            let expected: Vec<_> = windows.iter().map(bits).collect();
            prop_assert_eq!(decoded, expected);

            windows.sort_by_key(|s| s.window);
            windows.dedup_by_key(|s| s.window);
            let log: WindowLog = windows.iter().cloned().collect();
            let mut w = Writer::new();
            log.checkpoint_into(&mut w);
            let bytes = w.into_bytes();
            prop_assert_eq!(&bytes, &per_window_layout(&windows));
            let mut r = Reader::new(&bytes);
            let restored = WindowLog::restore_from(&mut r).expect("ascending windows restore");
            r.finish().expect("no trailing bytes");
            prop_assert_eq!(restored, log);
        }
    }
}
