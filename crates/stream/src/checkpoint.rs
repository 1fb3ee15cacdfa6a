//! Deterministic byte serialization for checkpointed state.
//!
//! The format is deliberately primitive: little-endian fixed-width
//! integers and `f64::to_bits`, length-prefixed collections, and nothing
//! platform- or allocation-dependent — the same state always serializes
//! to the same bytes, which is what makes "resume is byte-identical to
//! uninterrupted" testable as a byte comparison of checkpoints. Every
//! component writes into and reads from one shared [`Writer`]/[`Reader`];
//! the framing around them (magic, version, checksum) belongs to the
//! fleet's run snapshot, the one on-disk format.

/// Why a checkpoint buffer failed to restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer ended before the encoded state did.
    Truncated,
    /// The encoded state ended before the buffer did.
    TrailingBytes,
    /// A home's windows are not in strictly ascending window order (see
    /// [`WindowLog::restore_from`](crate::WindowLog::restore_from)).
    WindowOrder,
    /// An id-keyed table's ids do not strictly ascend, or a table keyed
    /// by another's ids names different ones (see
    /// [`StreamCorrelator::restore_from`](crate::StreamCorrelator::restore_from)).
    KeyOrder,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::TrailingBytes => write!(f, "trailing bytes after checkpoint"),
            CheckpointError::WindowOrder => write!(f, "windows out of order in checkpoint"),
            CheckpointError::KeyOrder => write!(f, "table ids out of order in checkpoint"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer::default()
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    /// A bool as one byte, `0` or `1`.
    pub fn bool(&mut self, b: bool) {
        self.u8(u8::from(b));
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based little-endian decoder.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(CheckpointError::Truncated)?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        self.take(n)
    }

    /// Every byte not yet read, leaving the reader at the end.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.pos..];
        self.pos = self.buf.len();
        rest
    }

    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Truncated)
    }

    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A string written by [`Writer::str`]; invalid UTF-8 is an error.
    pub fn string(&mut self) -> Result<String, CheckpointError> {
        let len = self.usize()?;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| CheckpointError::Truncated)
    }

    /// A bool written by [`Writer::bool`]; any tag but `0` or `1` is an
    /// error.
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Truncated),
        }
    }

    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CheckpointError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_every_primitive() {
        let mut w = Writer::new();
        w.bytes(b"MAGI");
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.usize(42);
        w.f64(-0.0);
        w.f64(f64::NAN);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.bytes(4).unwrap(), b"MAGI");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        r.finish().unwrap();
    }

    #[test]
    fn strings_and_bools_round_trip_and_reject_bad_bytes() {
        let mut w = Writer::new();
        w.str("cam-ü");
        w.str("");
        w.bool(true);
        w.bool(false);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[..8], &6u64.to_le_bytes());
        assert_eq!(&bytes[bytes.len() - 2..], &[1, 0]);

        let mut r = Reader::new(&bytes);
        assert_eq!(r.string().unwrap(), "cam-ü");
        assert_eq!(r.string().unwrap(), "");
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        r.finish().unwrap();

        assert_eq!(Reader::new(&[2]).bool(), Err(CheckpointError::Truncated));
        let mut w = Writer::new();
        w.usize(1);
        w.u8(0xFF);
        let bytes = w.into_bytes();
        assert_eq!(
            Reader::new(&bytes).string(),
            Err(CheckpointError::Truncated)
        );
    }

    #[test]
    fn truncation_and_trailing_bytes_are_detected() {
        let mut w = Writer::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        assert_eq!(r.u64(), Err(CheckpointError::Truncated));
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 1);
        assert_eq!(r.rest(), &[0, 0, 0, 0]);
        r.finish().unwrap();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 1);
        assert_eq!(r.finish(), Err(CheckpointError::TrailingBytes));
    }
}
