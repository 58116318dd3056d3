//! Wrapping 32-bit TCP sequence-number arithmetic (RFC 793 §3.3).
//!
//! Sequence numbers live on a circle of 2³² values; "less than" is only
//! meaningful for values within 2³¹ of each other, which TCP's window
//! rules guarantee. ST-TCP leans on this arithmetic twice over: the
//! backup's send space must be the primary's (paper §4.1) and
//! the primary's retention buffer is managed by comparing the backup's
//! `LastByteAcked` against `LastByteRead` (§4.2).

use std::fmt;

/// A TCP sequence number.
///
/// ```
/// use tcpstack::SeqNum;
///
/// let near_wrap = SeqNum::new(u32::MAX - 1);
/// let after = near_wrap.add(10); // crosses 2^32
/// assert!(near_wrap.lt(after));
/// assert_eq!(after.distance(near_wrap), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNum(pub u32);

impl SeqNum {
    /// Constructs from the raw wire value.
    pub const fn new(v: u32) -> Self {
        SeqNum(v)
    }

    /// The raw wire value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// `self + n` on the sequence circle.
    #[must_use]
    pub const fn add(self, n: u32) -> SeqNum {
        SeqNum(self.0.wrapping_add(n))
    }

    /// `self - n` on the sequence circle.
    #[must_use]
    pub const fn sub(self, n: u32) -> SeqNum {
        SeqNum(self.0.wrapping_sub(n))
    }

    /// Signed circular distance `self - other`, valid when the true
    /// distance is within ±2³¹.
    pub const fn distance(self, other: SeqNum) -> i64 {
        self.0.wrapping_sub(other.0) as i32 as i64
    }

    /// `self < other` in circular order.
    pub const fn lt(self, other: SeqNum) -> bool {
        self.distance(other) < 0
    }

    /// `self <= other` in circular order.
    pub const fn le(self, other: SeqNum) -> bool {
        self.distance(other) <= 0
    }

    /// `self > other` in circular order.
    pub const fn gt(self, other: SeqNum) -> bool {
        self.distance(other) > 0
    }

    /// `self >= other` in circular order.
    pub const fn ge(self, other: SeqNum) -> bool {
        self.distance(other) >= 0
    }

    /// True when `low <= self < high` in circular order.
    pub const fn in_range(self, low: SeqNum, high: SeqNum) -> bool {
        low.le(self) && self.lt(high)
    }

    /// The larger of two sequence numbers in circular order.
    pub fn max(self, other: SeqNum) -> SeqNum {
        if self.ge(other) {
            self
        } else {
            other
        }
    }

    /// The smaller of two sequence numbers in circular order.
    pub fn min(self, other: SeqNum) -> SeqNum {
        if self.le(other) {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for SeqNum {
    fn from(v: u32) -> Self {
        SeqNum(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ordering() {
        let a = SeqNum(100);
        let b = SeqNum(200);
        assert!(a.lt(b) && a.le(b) && b.gt(a) && b.ge(a));
        assert!(a.le(a) && a.ge(a) && !a.lt(a) && !a.gt(a));
    }

    #[test]
    fn wraparound_ordering() {
        // 2^32 - 10 is "before" 10 across the wrap.
        let near_wrap = SeqNum(u32::MAX - 9);
        let after_wrap = SeqNum(10);
        assert!(near_wrap.lt(after_wrap));
        assert!(after_wrap.gt(near_wrap));
        assert_eq!(after_wrap.distance(near_wrap), 20);
        assert_eq!(near_wrap.distance(after_wrap), -20);
    }

    #[test]
    fn add_sub_roundtrip() {
        let s = SeqNum(u32::MAX - 5);
        assert_eq!(s.add(10), SeqNum(4));
        assert_eq!(s.add(10).sub(10), s);
    }

    #[test]
    fn in_range_straddles_wrap() {
        let low = SeqNum(u32::MAX - 2);
        let high = SeqNum(3);
        assert!(SeqNum(u32::MAX).in_range(low, high));
        assert!(SeqNum(0).in_range(low, high));
        assert!(SeqNum(2).in_range(low, high));
        assert!(!SeqNum(3).in_range(low, high));
        assert!(!SeqNum(100).in_range(low, high));
    }

    #[test]
    fn min_max() {
        let a = SeqNum(u32::MAX);
        let b = SeqNum(5); // after wrap, b > a
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
