//! The packet payload buffer.

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// A packet's application bytes: an immutable buffer whose clones share
/// one single-threaded allocation. A packet never leaves its home's
/// thread (its [`Body`](crate::Body) holds `Rc<str>` names), so the count
/// need not be atomic.
///
/// The empty payload holds no allocation: an `Rc<[u8]>` allocates its
/// counts even for no data, so every empty form is `None`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Payload(Option<Rc<[u8]>>);

impl Payload {
    fn copy_of(data: &[u8]) -> Self {
        Payload((!data.is_empty()).then(|| data.into()))
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.0.as_deref().unwrap_or_default()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::copy_of(&v)
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload::copy_of(v)
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(v: [u8; N]) -> Self {
        Payload::copy_of(&v)
    }
}

impl FromIterator<u8> for Payload {
    /// Collects straight into the shared buffer: an iterator of known
    /// exact length (a slice chained with padding, say) allocates once,
    /// and one that yields nothing allocates nothing.
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        let mut iter = iter.into_iter().peekable();
        Payload(iter.peek().is_some().then(|| iter.collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage_and_compares_equal() {
        let a = Payload::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(Rc::ptr_eq(a.0.as_ref().unwrap(), b.0.as_ref().unwrap()));
        assert_eq!(&a[..], &[1, 2, 3]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
    }

    #[test]
    fn conversions() {
        assert_eq!(&Payload::from(b"hi".to_vec())[..], b"hi");
        assert_eq!(&Payload::from(&b"hi"[..])[..], b"hi");
        assert_eq!(&Payload::from(*b"hi")[..], b"hi");
        assert_eq!(&b"hi".iter().copied().collect::<Payload>()[..], b"hi");
        assert!(Payload::default().is_empty());
    }

    #[test]
    fn every_empty_form_is_the_empty_payload() {
        let empties = [
            Payload::from(Vec::new()),
            Payload::from([]),
            Payload::from(&[][..]),
            std::iter::empty().collect(),
            b"hi".iter().copied().filter(|_| false).collect(),
        ];
        for p in &empties {
            assert_eq!(*p, Payload::default());
            assert!(p.0.is_none());
        }
    }
}
