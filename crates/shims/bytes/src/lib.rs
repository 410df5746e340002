//! Offline shim for the `bytes` crate.
//!
//! Implements the subset of the `bytes` 1.x API this workspace uses:
//! cheaply-clonable immutable [`Bytes`] with zero-copy [`Bytes::slice`]
//! views, growable [`BytesMut`], and the big-endian [`BufMut`] writer
//! methods. Semantics match the real crate for this subset; `split` is not
//! provided.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, Range, RangeBounds};
use std::sync::Arc;

/// Cheaply clonable, immutable byte buffer.
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    /// A view of `range` within a shared buffer; the whole buffer stays
    /// alive as long as any view of it does. The `Vec` is the one a
    /// [`BytesMut`] or a caller's `Vec` grew, handed over as it is.
    Shared(Arc<Vec<u8>>, Range<usize>),
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub const fn new() -> Self {
        Bytes(Repr::Static(&[]))
    }

    /// Wrap a static slice (no allocation, no copy).
    pub const fn from_static(b: &'static [u8]) -> Self {
        Bytes(Repr::Static(b))
    }

    /// Copy a slice into a new shared buffer.
    pub fn copy_from_slice(b: &[u8]) -> Self {
        Bytes::from(b.to_vec())
    }

    /// A view of `range` within this buffer sharing its storage (no
    /// allocation, no copy). Panics if the range is inverted or reaches
    /// past the end, like slice indexing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1).expect("range start overflows"),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("range end overflows"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            start <= end && end <= len,
            "slice {start}..{end} out of range for Bytes of length {len}"
        );
        match &self.0 {
            // An empty view must not keep the allocation alive.
            _ if start == end => Bytes::new(),
            Repr::Static(s) => Bytes(Repr::Static(&s[start..end])),
            Repr::Shared(buf, view) => Bytes(Repr::Shared(
                buf.clone(),
                view.start + start..view.start + end,
            )),
        }
    }

    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared(buf, view) => &buf[view.start..view.end],
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes the vector's buffer over: the bytes are neither copied nor
    /// reallocated (only the reference count is a new, small allocation).
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes(Repr::Shared(Arc::new(v), 0..len))
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(b: &'static [u8]) -> Self {
        Bytes::from_static(b)
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// Growable byte buffer; freeze into [`Bytes`] when done.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    pub fn with_capacity(n: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(n),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Convert into an immutable, cheaply clonable buffer that keeps this
    /// one's allocation (no copy).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    pub fn extend_from_slice(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&Bytes::copy_from_slice(&self.buf), f)
    }
}

/// Big-endian append-only writer, as used by the wire codecs.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u128(&mut self, v: u128) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(val);
        }
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.buf.put_bytes(val, cnt);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.resize(self.len() + cnt, val);
    }
}

impl<T: BufMut + ?Sized> BufMut for &mut T {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src);
    }
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        (**self).put_bytes(val, cnt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip() {
        let b = Bytes::from(vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.as_ref(), &[1, 2, 3]);
        assert_eq!(b.clone(), b);
        assert_eq!(Bytes::from_static(b"abc").to_vec(), b"abc");
    }

    fn hash_of(b: &Bytes) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    #[test]
    fn slice_views_share_storage_and_compare_by_content() {
        let b = Bytes::from((0u8..10).collect::<Vec<_>>());
        let mid = b.slice(2..8);
        assert_eq!(mid.as_ref(), &[2, 3, 4, 5, 6, 7]);
        assert_eq!(mid.len(), 6);
        assert_eq!(b.slice(..).as_ref(), b.as_ref());
        assert_eq!(b.slice(7..).as_ref(), &[7, 8, 9]);
        assert_eq!(b.slice(..=1).as_ref(), &[0, 1]);
        // Slice of a slice is relative to the view, not the allocation.
        let inner = mid.slice(1..3);
        assert_eq!(inner.as_ref(), &[3, 4]);
        assert_eq!(inner.slice(1..).as_ref(), &[4]);
        // A view equals (and hashes like) an owned copy of the same bytes.
        let owned = Bytes::copy_from_slice(&[2, 3, 4, 5, 6, 7]);
        assert_eq!(mid, owned);
        assert_eq!(hash_of(&mid), hash_of(&owned));
        assert_ne!(mid, inner);
        // The view outlives the handle it was cut from.
        drop(b);
        assert_eq!(mid.to_vec(), vec![2, 3, 4, 5, 6, 7]);
        assert_eq!(format!("{inner:?}"), "b\"\\x03\\x04\"");
    }

    #[test]
    fn slice_of_static_stays_static_and_empty_views_own_nothing() {
        let s = Bytes::from_static(b"hello world");
        let w = s.slice(6..);
        assert_eq!(w.as_ref(), b"world");
        assert!(matches!(w.0, Repr::Static(_)));
        assert_eq!(w, Bytes::copy_from_slice(b"world"));
        assert_eq!(hash_of(&w), hash_of(&Bytes::copy_from_slice(b"world")));
        let shared = Bytes::from(vec![1, 2, 3]);
        for empty in [shared.slice(3..), shared.slice(1..1), s.slice(..0)] {
            assert!(empty.is_empty());
            assert!(matches!(empty.0, Repr::Static(_)));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_past_the_end_panics() {
        Bytes::from(vec![1, 2, 3]).slice(1..5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_of_view_is_bounded_by_the_view_not_the_allocation() {
        Bytes::from(vec![1, 2, 3, 4, 5]).slice(0..2).slice(0..3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    #[allow(clippy::reversed_empty_ranges)]
    fn inverted_slice_panics() {
        Bytes::from_static(b"abc").slice(2..1);
    }

    #[test]
    fn bufmut_big_endian() {
        let mut m = BytesMut::with_capacity(8);
        m.put_u16(0x0102);
        m.put_u8(0xff);
        m.put_bytes(0, 2);
        assert_eq!(&m[..], &[1, 2, 0xff, 0, 0]);
        assert_eq!(m.freeze().as_ref(), &[1, 2, 0xff, 0, 0]);
    }

    #[test]
    fn freeze_and_from_vec_keep_the_allocation() {
        let mut m = BytesMut::with_capacity(64);
        m.put_bytes(7, 64);
        let before = m.as_ptr();
        let frozen = m.freeze();
        assert_eq!(frozen.as_ptr(), before, "freeze copied the buffer");
        assert_eq!(frozen.slice(8..).as_ptr(), before.wrapping_add(8));
        let v = vec![1u8, 2, 3];
        let before = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), before, "From<Vec> copied it");
    }

    #[test]
    fn put_bytes_of_zero_is_a_no_op() {
        let mut m = BytesMut::new();
        m.put_u8(9);
        m.put_bytes(0xaa, 0);
        assert_eq!(&m[..], &[9]);
        let mut v = vec![1u8];
        v.put_bytes(0xaa, 0);
        (&mut v).put_bytes(0xaa, 0);
        assert_eq!(v, [1]);
    }

    #[test]
    fn bulk_put_bytes_equals_byte_by_byte() {
        let mut bulk = BytesMut::with_capacity(3);
        bulk.put_u16(0x0102);
        bulk.put_bytes(0x5a, 4_096);
        let mut one_by_one = BytesMut::with_capacity(3);
        one_by_one.put_u16(0x0102);
        for _ in 0..4_096 {
            one_by_one.put_u8(0x5a);
        }
        assert_eq!(bulk.len(), 2 + 4_096);
        assert_eq!(bulk, one_by_one);
        let mut via_ref = Vec::new();
        (&mut via_ref).put_bytes(0x5a, 4_096);
        assert_eq!(via_ref[..], one_by_one[2..]);
    }
}
