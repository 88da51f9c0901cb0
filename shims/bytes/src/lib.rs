//! Minimal stand-in for the `bytes` crate so the workspace builds
//! without a registry. `Bytes` is a cheaply-clonable shared byte buffer
//! (refcounted, zero-copy `slice`/`clone`), `BytesMut` an append buffer,
//! and `Buf`/`BufMut` carry the cursor-style accessors the wire code
//! uses. Semantics match the real crate for this subset, including
//! panics on over-reads and the cost of `freeze`/`From<Vec<u8>>`: the
//! `Vec`'s allocation is kept and shared, never copied.

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// Cheaply clonable, immutable, shared byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    /// The `Vec` the buffer was built from, shared as is: an
    /// `Arc<[u8]>` would reallocate and copy it on every conversion.
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static byte slice.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Copies this buffer's remaining bytes into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Returns a zero-copy sub-slice of this buffer.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let lo = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => len,
        };
        assert!(lo <= hi && hi <= len, "slice out of bounds: {lo}..{hi} of {len}");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
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

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
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

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// Growable byte buffer that freezes into `Bytes`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with `capacity` bytes pre-allocated.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            vec: Vec::with_capacity(capacity),
        }
    }

    /// Ensures space for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }

    /// Converts into an immutable `Bytes`.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({} bytes)", self.vec.len())
    }
}

/// Cursor-style read access over a byte buffer.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];
    /// Consumes `cnt` bytes. Panics if fewer remain.
    fn advance(&mut self, cnt: usize);

    /// Copies `dst.len()` bytes out, consuming them. Panics if fewer remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            self.remaining() >= dst.len(),
            "buffer underflow: need {} bytes, have {}",
            dst.len(),
            self.remaining()
        );
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Reads a little-endian `u16`, consuming 2 bytes.
    fn get_u16_le(&mut self) -> u16 {
        let mut raw = [0u8; 2];
        self.copy_to_slice(&mut raw);
        u16::from_le_bytes(raw)
    }

    /// Reads a little-endian `u32`, consuming 4 bytes.
    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        self.copy_to_slice(&mut raw);
        u32::from_le_bytes(raw)
    }

    /// Reads a big-endian `u32`, consuming 4 bytes.
    fn get_u32(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        self.copy_to_slice(&mut raw);
        u32::from_be_bytes(raw)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.end - self.start
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(
            cnt <= self.remaining(),
            "cannot advance past end of buffer"
        );
        self.start += cnt;
    }
}

/// Append-style write access over a byte buffer.
pub trait BufMut {
    /// Appends all of `src`.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends a single byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.vec.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_slice() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u32_le(7);
        m.put_u16_le(300);
        m.put_slice(b"ab");
        let b = m.freeze();
        assert_eq!(b.len(), 8);
        let tail = b.slice(4..);
        let mut cur = b.clone();
        assert_eq!(cur.get_u32_le(), 7);
        assert_eq!(cur.get_u16_le(), 300);
        assert_eq!(&cur[..], b"ab");
        assert_eq!(&tail[2..], b"ab");
    }

    #[test]
    fn freeze_and_from_vec_keep_the_allocation() {
        let mut m = BytesMut::with_capacity(64);
        m.put_slice(&[7u8; 48]);
        let before = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), before);

        let v = vec![3u8; 4096];
        let before = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), before);
    }

    #[test]
    fn views_share_the_buffer() {
        let b = Bytes::from((0u8..32).collect::<Vec<_>>());
        let base = b.as_ptr();
        assert_eq!(b.clone().as_ptr(), base);
        let tail = b.slice(8..24);
        assert_eq!(tail.as_ptr(), base.wrapping_add(8));
        assert_eq!(tail.slice(4..).as_ptr(), base.wrapping_add(12));
        let mut cur = b.clone();
        cur.advance(5);
        assert_eq!(cur.as_ptr(), base.wrapping_add(5));
        assert_eq!(cur.chunk(), &b[5..]);
        // A view outlives the handle it was cut from.
        drop(b);
        drop(cur);
        assert_eq!(&tail[..], &(8u8..24).collect::<Vec<_>>()[..]);
    }

    #[test]
    #[should_panic]
    fn over_read_panics() {
        let mut b = Bytes::from_static(&[1, 2]);
        let _ = b.get_u32_le();
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn copy_past_a_view_panics() {
        // The view ends before the allocation does.
        let mut view = Bytes::from(vec![0u8; 16]).slice(..3);
        view.copy_to_slice(&mut [0u8; 4]);
    }

    #[test]
    #[should_panic(expected = "cannot advance past end")]
    fn advance_past_a_view_panics() {
        let mut view = Bytes::from(vec![0u8; 16]).slice(2..6);
        view.advance(5);
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_past_a_view_panics() {
        let view = Bytes::from(vec![0u8; 16]).slice(2..6);
        let _ = view.slice(..5);
    }
}
