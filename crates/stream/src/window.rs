//! Per-window feature summaries and the bounded buffer homes emit them
//! through.

use std::collections::VecDeque;

/// Dimensions of a [`WindowSummary::features`] vector. Order (all deltas
/// are over one window, computed from side-effect-free home snapshots):
///
/// | idx | meaning                                   |
/// |-----|-------------------------------------------|
/// | 0   | evidence records fused                    |
/// | 1   | device-layer evidence records             |
/// | 2   | network-layer evidence records            |
/// | 3   | service-layer evidence records            |
/// | 4   | warning-severity alerts raised            |
/// | 5   | critical-severity alerts raised           |
/// | 6   | packets forwarded by the gateway          |
/// | 7   | packets dropped by the gateway            |
/// | 8   | wire bytes observed on the home's links   |
/// | 9   | packets observed on the home's links      |
pub const STREAM_FEATURES: usize = 10;

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

    /// Consumes the buffer into its surviving windows (oldest first) and
    /// the shed count. The vector holds exactly the surviving windows:
    /// the deque grows by doubling, and a home keeps its windows until
    /// the fleet's stream pass has run, so its slack would stay resident
    /// (4 slots of 32 for a 28-window home).
    pub fn into_parts(self) -> (Vec<WindowSummary>, u64) {
        let mut windows = Vec::with_capacity(self.windows.len());
        windows.extend(self.windows);
        (windows, self.shed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (windows, shed) = buf.into_parts();
        assert_eq!(windows.len(), 5);
        assert_eq!(shed, 0);
        assert_eq!(windows[0].window, 0);
    }

    #[test]
    fn overflow_sheds_oldest_first_and_counts() {
        let mut buf = WindowBuffer::new(3);
        for w in 0..7 {
            buf.push(summary(1, w));
        }
        assert_eq!(buf.shed(), 4);
        let (windows, shed) = buf.into_parts();
        assert_eq!(shed, 4);
        let kept: Vec<u64> = windows.iter().map(|s| s.window).collect();
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
}
