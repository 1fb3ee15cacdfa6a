//! Arrival-order independence of the stream correlator over irregular
//! fleets: homes join at any epoch, windows go missing, and each
//! epoch's summaries arrive in any order. The correlator folds by home
//! id into an id-sorted table, so the outcome and the checkpoint bytes
//! must equal those of the same epochs fed in sorted order — also when
//! the shuffled run is checkpointed and restored at any epoch.

use proptest::prelude::*;
use xlf_stream::{Reader, StreamCorrelator, WindowSummary, Writer, STREAM_FEATURES};

fn checkpoint(correlator: &StreamCorrelator) -> Vec<u8> {
    let mut w = Writer::new();
    correlator.checkpoint_into(&mut w);
    w.into_bytes()
}

fn restore(bytes: &[u8]) -> StreamCorrelator {
    let mut r = Reader::new(bytes);
    let correlator = StreamCorrelator::restore_from(&mut r).expect("restore");
    r.finish().expect("no trailing bytes");
    correlator
}

/// The most epochs a case runs.
const MAX_EPOCHS: usize = 9;

/// Feature values, including the non-finite ones the correlator
/// sanitises to 0; a positive value in the critical-alert feature turns
/// a home critical.
const POOL: [f64; 7] = [0.0, 1.0, 2.5, 40.0, 1e3, f64::NAN, f64::INFINITY];

/// One home: the epoch it joins at (taken modulo the case's epochs),
/// per epoch its feature picks from [`POOL`] (few values, so homes
/// collide and the kNN graph sees duplicates) and whether its window
/// reaches the correlator (4 in 5 do), and whether its windows are
/// partial (1 in 5).
type Home = (u64, Vec<Vec<usize>>, Vec<u8>, u8);

fn home() -> impl Strategy<Value = Home> {
    (
        0..MAX_EPOCHS as u64,
        prop::collection::vec(
            prop::collection::vec(0..POOL.len(), STREAM_FEATURES),
            MAX_EPOCHS,
        ),
        prop::collection::vec(0u8..5, MAX_EPOCHS),
        0u8..5,
    )
}

/// Epoch-by-epoch batches in home-id order. Home ids are spread out, so
/// a late joiner lands between homes already in the table.
fn sorted_batches(homes: &[Home], epochs: usize) -> Vec<Vec<WindowSummary>> {
    (0..epochs)
        .map(|epoch| {
            homes
                .iter()
                .enumerate()
                .filter(|(_, (joins, _, present, _))| {
                    epoch as u64 >= joins % epochs as u64 && present[epoch] != 0
                })
                .map(|(i, (_, picks, _, partial))| WindowSummary {
                    home: 7 + 13 * i as u64,
                    window: epoch as u64,
                    partial: *partial == 0,
                    features: std::array::from_fn(|d| POOL[picks[epoch][d]]),
                })
                .collect()
        })
        .collect()
}

proptest! {
    #[test]
    fn shuffled_late_joining_epochs_equal_sorted_epochs(
        epochs in 1..=MAX_EPOCHS,
        homes in prop::collection::vec(home(), 1..14),
        shuffle_keys in prop::collection::vec(any::<u64>(), 14 * MAX_EPOCHS),
        split in 0..=MAX_EPOCHS,
    ) {
        let sorted = sorted_batches(&homes, epochs);
        let mut keys = shuffle_keys.iter();
        let shuffled: Vec<Vec<WindowSummary>> = sorted
            .iter()
            .map(|batch| {
                let mut keyed: Vec<(u64, WindowSummary)> = batch
                    .iter()
                    .map(|w| (*keys.next().unwrap_or(&0), w.clone()))
                    .collect();
                keyed.sort_by_key(|(k, _)| *k);
                keyed.into_iter().map(|(_, w)| w).collect()
            })
            .collect();

        let mut reference = StreamCorrelator::new();
        for batch in &sorted {
            reference.ingest_epoch(batch);
        }
        let reference_bytes = checkpoint(&reference);

        let mut straight = StreamCorrelator::new();
        for batch in &shuffled {
            straight.ingest_epoch(batch);
        }
        prop_assert_eq!(straight.outcome(), reference.outcome());
        prop_assert_eq!(checkpoint(&straight), reference_bytes.clone());

        let split = split % (epochs + 1);
        let mut first = StreamCorrelator::new();
        for batch in &shuffled[..split] {
            first.ingest_epoch(batch);
        }
        let mut resumed = restore(&checkpoint(&first));
        for batch in &shuffled[split..] {
            resumed.ingest_epoch(batch);
        }
        prop_assert_eq!(resumed.outcome(), reference.outcome());
        prop_assert_eq!(checkpoint(&resumed), reference_bytes);
    }
}
