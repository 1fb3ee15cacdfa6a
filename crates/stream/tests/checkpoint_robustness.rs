//! Checkpoint restore robustness: checkpoint bytes are an untrusted
//! input (they come off disk inside a run snapshot), so `restore_from`
//! must map every malformed buffer to a structured [`CheckpointError`] —
//! never a panic, never a silently-wrong correlator.

use proptest::prelude::*;
use xlf_stream::{
    CheckpointError, Reader, RobustAccumulator, StreamCorrelator, WindowSummary, Writer,
    STREAM_FEATURES,
};

fn checkpoint(correlator: &StreamCorrelator) -> Vec<u8> {
    let mut w = Writer::new();
    correlator.checkpoint_into(&mut w);
    w.into_bytes()
}

/// Restores a correlator that must fill `bytes` exactly, as the run
/// snapshot's reader ends on the last component it wrote.
fn restore(bytes: &[u8]) -> Result<StreamCorrelator, CheckpointError> {
    let mut r = Reader::new(bytes);
    let correlator = StreamCorrelator::restore_from(&mut r)?;
    r.finish()?;
    Ok(correlator)
}

/// A checkpoint with real state in it: 6 homes × 5 epochs ingested.
fn populated_checkpoint() -> Vec<u8> {
    let mut correlator = StreamCorrelator::new();
    for epoch in 0..5u64 {
        let batch: Vec<WindowSummary> = (0..6u64)
            .map(|home| {
                let mut features = [0.0; STREAM_FEATURES];
                features[0] = 10.0 + home as f64;
                features[9] = 100.0 * (epoch + 1) as f64;
                WindowSummary {
                    home,
                    window: epoch,
                    partial: false,
                    features,
                }
            })
            .collect();
        correlator.ingest_epoch(&batch);
    }
    checkpoint(&correlator)
}

#[test]
fn every_truncation_is_a_structured_error() {
    let bytes = populated_checkpoint();
    assert!(restore(&bytes).is_ok());
    for len in 0..bytes.len() {
        let err = restore(&bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} bytes restored successfully"));
        assert_eq!(
            err,
            CheckpointError::Truncated,
            "truncation to {len} bytes: unexpected error {err:?}"
        );
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = populated_checkpoint();
    bytes.push(0);
    assert_eq!(restore(&bytes).err(), Some(CheckpointError::TrailingBytes));
}

/// A hand-written checkpoint at epoch 1 whose id-keyed tables hold the
/// ids given: each home has an empty profile, the label table names
/// `labels` (labels 0, 1, …), and each first detection is epoch 0.
fn crafted(homes: &[u64], labels: &[u64], flagged: &[u64], first: &[u64]) -> Vec<u8> {
    let mut w = Writer::new();
    // Epoch, next label, windows ingested, windows shed.
    for counter in [1, homes.len() as u64, 0, 0] {
        w.u64(counter);
    }
    w.usize(homes.len());
    for &id in homes {
        w.u64(id);
        w.bool(false);
        for _ in 0..STREAM_FEATURES {
            w.f64(0.0);
        }
        for _ in 0..STREAM_FEATURES {
            RobustAccumulator::new().checkpoint_into(&mut w);
        }
    }
    w.usize(labels.len());
    for (label, &id) in labels.iter().enumerate() {
        w.u64(id);
        w.u64(label as u64);
    }
    w.usize(flagged.len());
    for &id in flagged {
        w.u64(id);
    }
    w.usize(first.len());
    for &id in first {
        w.u64(id);
        w.u64(0);
    }
    w.usize(0);
    w.into_bytes()
}

#[test]
fn crafted_tables_in_id_order_restore_to_the_same_bytes() {
    let bytes = crafted(&[3, 5, 9], &[3, 5, 9], &[5, 9], &[5, 9]);
    let restored = restore(&bytes).expect("a well-ordered checkpoint restores");
    assert_eq!(checkpoint(&restored), bytes);
}

/// A map keyed by home id would re-sort or merge these tables and
/// restore a correlator no run reached; the id-sorted table rejects
/// them.
#[test]
fn home_ids_that_do_not_strictly_ascend_are_rejected() {
    for homes in [[5, 3, 9], [3, 3, 9], [3, 9, 5]] {
        let bytes = crafted(&homes, &homes, &[], &[]);
        assert_eq!(
            restore(&bytes).err(),
            Some(CheckpointError::KeyOrder),
            "homes {homes:?}"
        );
    }
}

#[test]
fn label_ids_other_than_the_home_ids_are_rejected() {
    let homes = [3, 5, 9];
    for labels in [
        &[3, 5][..],
        &[3, 5, 9, 11],
        &[3, 9, 5],
        &[3, 5, 7],
        &[3, 3, 9],
        &[],
    ] {
        let bytes = crafted(&homes, labels, &[], &[]);
        assert_eq!(
            restore(&bytes).err(),
            Some(CheckpointError::KeyOrder),
            "labels {labels:?}"
        );
    }
}

#[test]
fn flagged_and_first_detection_ids_must_strictly_ascend() {
    let homes = [3, 5, 9];
    let bad = crafted(&homes, &homes, &[9, 5], &[]);
    assert_eq!(restore(&bad).err(), Some(CheckpointError::KeyOrder));
    let bad = crafted(&homes, &homes, &[], &[5, 5]);
    assert_eq!(restore(&bad).err(), Some(CheckpointError::KeyOrder));
}

proptest! {
    /// Flipping any single byte of a valid checkpoint never panics the
    /// restore path: it either fails with a structured error or yields a
    /// correlator whose own re-checkpoint is well-formed.
    #[test]
    fn single_byte_corruption_never_panics(idx in 0usize..4096, xor in 1u8..=255) {
        let mut bytes = populated_checkpoint();
        let idx = idx % bytes.len();
        bytes[idx] ^= xor;
        if let Ok(restored) = restore(&bytes) {
            // Corruption in value bytes can still decode; the restored
            // correlator must at least be internally consistent enough
            // to checkpoint again.
            let rechecked = checkpoint(&restored);
            prop_assert!(restore(&rechecked).is_ok());
        }
    }

    /// Arbitrary byte soup never panics `restore_from`.
    #[test]
    fn arbitrary_bytes_never_panic(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = restore(&data);
    }
}
