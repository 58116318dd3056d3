//! Vendored, minimal reimplementation of the parts of the `bytes` crate
//! this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! ships its own `Bytes`/`BytesMut` with the same semantics the real
//! crate documents for the operations we rely on — and only those: an
//! item nothing in the workspace or the benchmark calls is not carried
//! (less hand-written `unsafe` to keep sound):
//!
//! * [`Bytes`] is a cheaply-cloneable, reference-counted, immutable view
//!   into a shared buffer. `clone()` and `slice()` never copy or
//!   allocate.
//! * [`BytesMut`] is a unique writer over the tail of a shared buffer.
//!   [`BytesMut::freeze`] and [`BytesMut::split`] hand out views
//!   without copying, and [`BytesMut::reserve`] reclaims the buffer in
//!   place once every view split from it has been dropped — the property
//!   the frame hot path uses to emit frames with zero steady-state
//!   allocations.
//! * [`Buf`]/[`BufMut`] provide the advancing big-endian accessors the
//!   codecs use.
//!
//! Layout: one heap allocation holds the byte buffer, a second (the
//! `Shared` header) holds the refcount and buffer metadata. Both are
//! reused for the life of a [`BytesMut`] under the reserve-reclaim rule,
//! so neither is a per-frame cost.

#![warn(missing_docs)]
// The workspace builds without LTO, so a non-generic function called
// across a crate boundary is a real call unless it is `#[inline]`: a
// two-byte `put_u16` used to be four calls and a `memcpy`.
#![warn(clippy::missing_inline_in_public_items)]

use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicUsize, Ordering};

/// Refcounted header for one shared buffer.
///
/// The buffer it points at never moves or changes size while more than
/// one reference is alive; that is what makes the raw `ptr`s stored in
/// [`Bytes`] stable.
struct Shared {
    refs: AtomicUsize,
    ptr: *mut u8,
    cap: usize,
}

impl Shared {
    /// Allocates a header plus a buffer of capacity `cap`.
    fn alloc(cap: usize) -> NonNull<Shared> {
        let mut v = ManuallyDrop::new(Vec::<u8>::with_capacity(cap));
        let shared =
            Box::new(Shared { refs: AtomicUsize::new(1), ptr: v.as_mut_ptr(), cap: v.capacity() });
        // SAFETY: Box::into_raw never returns null.
        unsafe { NonNull::new_unchecked(Box::into_raw(shared)) }
    }

    /// Takes ownership of an existing `Vec`'s buffer without copying.
    fn from_vec(vec: Vec<u8>) -> (NonNull<Shared>, usize) {
        let mut v = ManuallyDrop::new(vec);
        let len = v.len();
        let shared =
            Box::new(Shared { refs: AtomicUsize::new(1), ptr: v.as_mut_ptr(), cap: v.capacity() });
        // SAFETY: Box::into_raw never returns null.
        (unsafe { NonNull::new_unchecked(Box::into_raw(shared)) }, len)
    }
}

/// Bumps the refcount of `shared`.
///
/// # Safety
/// `shared` must point at a live `Shared` (refcount ≥ 1).
#[inline]
unsafe fn incref(shared: NonNull<Shared>) {
    shared.as_ref().refs.fetch_add(1, Ordering::Relaxed);
}

/// Drops one reference; frees the buffer and header on the last one.
///
/// # Safety
/// The caller must own one reference and never use `shared` again.
#[inline]
unsafe fn decref(shared: NonNull<Shared>) {
    if shared.as_ref().refs.fetch_sub(1, Ordering::Release) == 1 {
        fence(Ordering::Acquire);
        let boxed = Box::from_raw(shared.as_ptr());
        drop(Vec::from_raw_parts(boxed.ptr, 0, boxed.cap));
    }
}

fn resolve_range(range: impl RangeBounds<usize>, len: usize) -> (usize, usize) {
    let start = match range.start_bound() {
        Bound::Included(&n) => n,
        Bound::Excluded(&n) => n + 1,
        Bound::Unbounded => 0,
    };
    let end = match range.end_bound() {
        Bound::Included(&n) => n + 1,
        Bound::Excluded(&n) => n,
        Bound::Unbounded => len,
    };
    assert!(start <= end, "range start {start} > end {end}");
    assert!(end <= len, "range end {end} out of bounds (len {len})");
    (start, end)
}

// ====================================================================
// Bytes
// ====================================================================

/// A cheaply-cloneable immutable view into a shared byte buffer.
pub struct Bytes {
    /// `None` for views of `'static` data (nothing to free).
    shared: Option<NonNull<Shared>>,
    ptr: *const u8,
    len: usize,
}

// SAFETY: the pointed-at bytes are immutable for the view's lifetime
// (a coexisting `BytesMut` only ever writes its own disjoint region),
// and the refcount is atomic.
unsafe impl Send for Bytes {}
unsafe impl Sync for Bytes {}

impl Bytes {
    /// An empty view. Never allocates.
    #[inline]
    pub const fn new() -> Bytes {
        Bytes { shared: None, ptr: NonNull::<u8>::dangling().as_ptr(), len: 0 }
    }

    /// Wraps `'static` data without allocating.
    #[inline]
    pub const fn from_static(data: &'static [u8]) -> Bytes {
        Bytes { shared: None, ptr: data.as_ptr(), len: data.len() }
    }

    /// Copies `data` into a fresh buffer.
    #[inline]
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Length of the view in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Keeps the first `len` bytes of the view; a `len` at or past its
    /// end leaves it as it is. Touches no refcount.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// Returns a sub-view; shares the buffer, never copies.
    ///
    /// # Panics
    /// Panics when the range is out of bounds.
    #[inline]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let (start, end) = resolve_range(range, self.len);
        if let Some(shared) = self.shared {
            // SAFETY: we hold a reference, so the header is live.
            unsafe { incref(shared) };
        }
        Bytes {
            shared: self.shared,
            // SAFETY: start ≤ len, so the offset stays in bounds.
            ptr: unsafe { self.ptr.add(start) },
            len: end - start,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: ptr/len describe initialized bytes that no writer
        // touches (see the `Send`/`Sync` comment).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Clone for Bytes {
    #[inline]
    fn clone(&self) -> Bytes {
        if let Some(shared) = self.shared {
            // SAFETY: we hold a reference, so the header is live.
            unsafe { incref(shared) };
        }
        Bytes { shared: self.shared, ptr: self.ptr, len: self.len }
    }
}

impl Drop for Bytes {
    #[inline]
    fn drop(&mut self) {
        if let Some(shared) = self.shared {
            // SAFETY: we own exactly one reference.
            unsafe { decref(shared) };
        }
    }
}

impl Default for Bytes {
    #[inline]
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl fmt::Debug for Bytes {
    #[allow(clippy::missing_inline_in_public_items, reason = "diagnostics, not a per-frame call")]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_bytes_debug(self, f)
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(vec: Vec<u8>) -> Bytes {
        if vec.capacity() == 0 {
            return Bytes::new();
        }
        let (shared, len) = Shared::from_vec(vec);
        // SAFETY: the header was just created and owns the buffer.
        let ptr = unsafe { shared.as_ref().ptr };
        Bytes { shared: Some(shared), ptr, len }
    }
}

impl PartialEq for Bytes {
    #[inline]
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

// ====================================================================
// BytesMut
// ====================================================================

/// A unique, growable writer over (a region of) a shared buffer.
///
/// The writer exclusively owns `[off, end)` of the underlying buffer;
/// views split off before `off` are immutable and disjoint, which is
/// what makes sharing sound.
pub struct BytesMut {
    /// `None` until the first write (an empty `BytesMut` is free).
    shared: Option<NonNull<Shared>>,
    /// Start of the exclusively-owned region.
    off: usize,
    /// Exclusive end of the owned region (== cap for an unsplit writer).
    end: usize,
    /// Initialized length within the owned region.
    len: usize,
}

// SAFETY: same argument as `Bytes`, plus the owned region is only ever
// written through the unique `&mut BytesMut`.
unsafe impl Send for BytesMut {}
unsafe impl Sync for BytesMut {}

impl BytesMut {
    /// An empty writer. Never allocates.
    #[inline]
    pub const fn new() -> BytesMut {
        BytesMut { shared: None, off: 0, end: 0, len: 0 }
    }

    /// A writer with at least `cap` bytes of capacity.
    #[inline]
    pub fn with_capacity(cap: usize) -> BytesMut {
        if cap == 0 {
            return BytesMut::new();
        }
        let shared = Shared::alloc(cap);
        // SAFETY: freshly allocated header.
        let end = unsafe { shared.as_ref().cap };
        BytesMut { shared: Some(shared), off: 0, end, len: 0 }
    }

    /// Initialized length.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bytes have been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn base(&self) -> *mut u8 {
        match self.shared {
            // SAFETY: we hold a reference, so the header is live.
            Some(shared) => unsafe { shared.as_ref().ptr },
            None => NonNull::<u8>::dangling().as_ptr(),
        }
    }

    /// Makes room for `additional` more bytes if that takes no
    /// allocation, and says whether it did.
    ///
    /// True when the room is already there, or when every view split
    /// from this buffer has been dropped (this writer holds the only
    /// reference) and the whole buffer, reclaimed in place, is large
    /// enough — the steady state of the frame hot path.
    #[inline]
    pub fn try_reclaim(&mut self, additional: usize) -> bool {
        if self.end - self.off - self.len >= additional {
            return true;
        }
        let Some(shared) = self.shared else {
            return false;
        };
        // SAFETY: we hold a reference, so the header is live.
        let s = unsafe { shared.as_ref() };
        if s.refs.load(Ordering::Acquire) != 1 || self.end != s.cap || s.cap < self.len + additional
        {
            return false;
        }
        // Sole owner of the whole buffer: slide our bytes to the front
        // and reuse the allocation.
        if self.len > 0 && self.off > 0 {
            // SAFETY: both ranges lie inside the same live buffer.
            unsafe {
                std::ptr::copy(s.ptr.add(self.off), s.ptr, self.len);
            }
        }
        self.off = 0;
        true
    }

    /// Ensures room for `additional` more bytes: in place when
    /// [`BytesMut::try_reclaim`] can, otherwise in a fresh buffer that
    /// the initialized bytes are moved over to.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        if self.end - self.off - self.len < additional {
            self.grow(additional);
        }
    }

    /// [`BytesMut::reserve`] past the room in hand: out of line, so the
    /// callers that inline `reserve` do not carry the allocation code.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, additional: usize) {
        if self.try_reclaim(additional) {
            return;
        }
        let needed = self.len + additional;
        // Fresh buffer, geometric growth.
        let new_cap = needed.max((self.end - self.off) * 2).max(64);
        let shared = Shared::alloc(new_cap);
        // SAFETY: freshly allocated, disjoint from the old buffer.
        unsafe {
            let dst = shared.as_ref().ptr;
            if self.len > 0 {
                std::ptr::copy_nonoverlapping(self.base().add(self.off), dst, self.len);
            }
        }
        if let Some(old) = self.shared {
            // SAFETY: we owned one reference to the old buffer.
            unsafe { decref(old) };
        }
        // SAFETY: freshly allocated header.
        let end = unsafe { shared.as_ref().cap };
        self.shared = Some(shared);
        self.off = 0;
        self.end = end;
    }

    /// Appends `src`, growing as needed.
    #[inline]
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.reserve(src.len());
        // SAFETY: reserve guaranteed room; the destination region
        // [off+len, off+len+src.len) is exclusively ours.
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr(),
                self.base().add(self.off + self.len),
                src.len(),
            );
        }
        self.len += src.len();
    }

    /// Freezes the writer into an immutable view. Never copies.
    #[inline]
    pub fn freeze(self) -> Bytes {
        let this = ManuallyDrop::new(self);
        match this.shared {
            Some(shared) => Bytes {
                shared: Some(shared),
                // SAFETY: off stays within the buffer.
                ptr: unsafe { shared.as_ref().ptr.add(this.off) },
                len: this.len,
            },
            None => Bytes::new(),
        }
    }

    /// Splits off and returns all initialized bytes as their own
    /// writer; `self` keeps the rest of the region. No copying.
    #[inline]
    pub fn split(&mut self) -> BytesMut {
        if let Some(shared) = self.shared {
            // SAFETY: we hold a reference, so the header is live.
            unsafe { incref(shared) };
        }
        let at = self.len;
        let head = BytesMut { shared: self.shared, off: self.off, end: self.off + at, len: at };
        self.off += at;
        self.len = 0;
        head
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: [off, off+len) is initialized and exclusively ours.
        unsafe { std::slice::from_raw_parts(self.base().add(self.off), self.len) }
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: [off, off+len) is initialized and exclusively ours.
        unsafe { std::slice::from_raw_parts_mut(self.base().add(self.off), self.len) }
    }
}

impl Drop for BytesMut {
    #[inline]
    fn drop(&mut self) {
        if let Some(shared) = self.shared {
            // SAFETY: we own exactly one reference.
            unsafe { decref(shared) };
        }
    }
}

impl Default for BytesMut {
    #[inline]
    fn default() -> BytesMut {
        BytesMut::new()
    }
}

impl fmt::Debug for BytesMut {
    #[allow(clippy::missing_inline_in_public_items, reason = "diagnostics, not a per-frame call")]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_bytes_debug(self, f)
    }
}

// ====================================================================
// Buf / BufMut
// ====================================================================

/// Advancing big-endian reads over a byte cursor.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread bytes.
    fn chunk(&self) -> &[u8];

    /// Skips `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Reads one byte.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a big-endian `u16`.
    #[inline]
    fn get_u16(&mut self) -> u16 {
        let c = self.chunk();
        let v = u16::from_be_bytes([c[0], c[1]]);
        self.advance(2);
        v
    }

    /// Reads a big-endian `u32`.
    #[inline]
    fn get_u32(&mut self) -> u32 {
        let c = self.chunk();
        let v = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        self.advance(4);
        v
    }

    /// Reads a big-endian `u64`.
    #[inline]
    fn get_u64(&mut self) -> u64 {
        let c = self.chunk();
        let v = u64::from_be_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        self.advance(8);
        v
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len, "advance {cnt} > remaining {}", self.len);
        // SAFETY: cnt ≤ len keeps the pointer in bounds.
        self.ptr = unsafe { self.ptr.add(cnt) };
        self.len -= cnt;
    }
}

/// Appending big-endian writes.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Shared `Debug` body for `Bytes`/`BytesMut`: `b"..."` escape syntax.
fn fmt_bytes_debug(data: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "b\"")?;
    for &b in data {
        match b {
            b'"' => write!(f, "\\\"")?,
            b'\\' => write!(f, "\\\\")?,
            b'\n' => write!(f, "\\n")?,
            b'\r' => write!(f, "\\r")?,
            b'\t' => write!(f, "\\t")?,
            0x20..=0x7e => write!(f, "{}", b as char)?,
            _ => write!(f, "\\x{b:02x}")?,
        }
    }
    write!(f, "\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_slice_shares_without_copying() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let s2 = s.slice(..2);
        assert_eq!(&s2[..], &[2, 3]);
        drop(b);
        assert_eq!(&s[..], &[2, 3, 4]); // still alive via refcount
    }

    #[test]
    fn bytes_static_and_empty() {
        let e = Bytes::new();
        assert!(e.is_empty());
        let s = Bytes::from_static(b"hello");
        assert_eq!(&s[..], b"hello");
        assert_eq!(s.slice(1..3), Bytes::from_static(b"el"));
        assert_eq!(Bytes::copy_from_slice(b"hello"), s);
    }

    #[test]
    fn bytesmut_roundtrip_and_freeze() {
        let mut m = BytesMut::with_capacity(8);
        m.put_u16(0xABCD);
        m.put_u8(0x01);
        m.put_slice(b"xyz");
        assert_eq!(m.len(), 6);
        m[0..2].copy_from_slice(&[0x11, 0x22]);
        let b = m.freeze();
        assert_eq!(&b[..], &[0x11, 0x22, 0x01, b'x', b'y', b'z']);
    }

    #[test]
    fn split_then_reserve_reclaims_when_unique() {
        let mut m = BytesMut::with_capacity(64);
        m.put_slice(b"frame-one");
        let base = m.as_ptr();
        let f1 = m.split().freeze();
        assert_eq!(&f1[..], b"frame-one");
        assert_eq!(m.len(), 0);
        m.put_slice(b"frame-two");
        let f2 = m.split().freeze();
        assert_eq!(f2.as_ptr(), unsafe { base.add(9) }, "split hands out views of one buffer");
        drop(f1);
        drop(f2);
        // All views gone: the same allocation is reclaimed from its start.
        m.reserve(64);
        m.put_slice(b"frame-three");
        assert_eq!(m.as_ptr(), base);
    }

    #[test]
    fn reserve_copies_when_shared() {
        let mut m = BytesMut::with_capacity(16);
        m.put_slice(b"ke");
        let pinned = m.split().freeze();
        m.put_slice(b"ep");
        m.reserve(64); // pinned view forces a fresh buffer
        m.put_slice(&[0u8; 60]);
        assert_eq!(&pinned[..], b"ke");
        assert_eq!(&m[..2], b"ep");
        assert_eq!(m.len(), 62);
    }

    #[test]
    fn buf_reads_advance() {
        let mut b = Bytes::from(vec![0, 1, 0xAB, 0xCD, 1, 2, 3, 4, 9]);
        assert_eq!(b.get_u16(), 1);
        assert_eq!(b.get_u16(), 0xABCD);
        assert_eq!(b.get_u32(), 0x01020304);
        assert_eq!(b.remaining(), 1);
        assert_eq!(b.get_u8(), 9);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn truncate_keeps_a_prefix_and_never_grows() {
        let mut b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        b.truncate(9);
        assert_eq!(&b[..], &[1, 2, 3, 4, 5], "longer than the view is a no-op");
        b.truncate(3);
        assert_eq!(&b[..], &[1, 2, 3]);
        b.truncate(5);
        assert_eq!(&b[..], &[1, 2, 3], "a cut-off tail does not come back");
        b.truncate(0);
        assert!(b.is_empty());
    }

    #[test]
    fn a_narrowed_view_is_the_one_reference_it_was() {
        // How a parser narrows: advance past a header, truncate to the
        // length field. The view still holds exactly one reference, so
        // dropping it hands the whole buffer back to the writer.
        let mut m = BytesMut::with_capacity(64);
        let base = m.as_ptr();
        m.put_slice(b"HDR:payload;pad");
        let mut view = m.split().freeze();
        view.advance(4);
        view.truncate(7);
        assert_eq!(&view[..], b"payload");
        assert_eq!(view.as_ptr(), unsafe { base.add(4) }, "narrowing never copies");
        assert!(!m.try_reclaim(64), "the view still pins the buffer");
        drop(view);
        assert!(m.try_reclaim(64), "its one reference was the last");
        m.put_slice(b"next");
        assert_eq!(m.as_ptr(), base);
    }

    #[test]
    fn wide_and_little_endian_accessors() {
        let mut m = BytesMut::new();
        m.put_u64(0x0102_0304_0506_0708);
        m.put_u32_le(0xA1B2_C3D4);
        let mut b = m.freeze();
        assert_eq!(&b[8..], &[0xD4, 0xC3, 0xB2, 0xA1]);
        assert_eq!(b.get_u64(), 0x0102_0304_0506_0708);
    }

    #[test]
    fn freeze_does_not_allocate() {
        // freeze/clone/slice must stay allocation-free: verified
        // indirectly here by checking pointer identity through the chain.
        let mut m = BytesMut::with_capacity(32);
        m.put_slice(b"abcdef");
        let p = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), p);
        let c = b.clone();
        assert_eq!(c.as_ptr(), p);
        let s = b.slice(2..4);
        assert_eq!(s.as_ptr(), unsafe { p.add(2) });
    }

    #[test]
    fn send_across_threads() {
        let b = Bytes::from(vec![7u8; 1024]);
        let c = b.clone();
        let t = std::thread::spawn(move || c.len());
        assert_eq!(t.join().unwrap(), 1024);
        assert_eq!(b[0], 7);
    }
}
