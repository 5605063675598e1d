//! Address and permission newtypes.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A guest-virtual address in the NPU's global memory space (48-bit in the
/// paper's RTT entries; we store 64 for convenience).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

/// A host-physical address in HBM/DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

macro_rules! addr_impls {
    ($t:ident) => {
        impl $t {
            /// Raw numeric address value.
            #[inline]
            pub fn value(self) -> u64 {
                self.0
            }

            /// Address advanced by `bytes`.
            #[inline]
            pub fn offset(self, bytes: u64) -> Self {
                $t(self.0 + bytes)
            }
        }

        impl Add<u64> for $t {
            type Output = $t;
            fn add(self, rhs: u64) -> $t {
                $t(self.0 + rhs)
            }
        }

        impl AddAssign<u64> for $t {
            fn add_assign(&mut self, rhs: u64) {
                self.0 += rhs;
            }
        }

        impl Sub<$t> for $t {
            type Output = u64;
            fn sub(self, rhs: $t) -> u64 {
                self.0 - rhs.0
            }
        }

        impl From<u64> for $t {
            fn from(v: u64) -> Self {
                $t(v)
            }
        }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }
    };
}

addr_impls!(VirtAddr);
addr_impls!(PhysAddr);

/// Access permissions carried by each translation entry (the paper's 4-bit
/// `Perm` field in Figure 7: `W/R`, `R`, `X/R`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Perm(u8);

impl Perm {
    /// Read.
    pub const R: Perm = Perm(0b001);
    /// Write.
    pub const W: Perm = Perm(0b010);
    /// Execute (instruction fetch from global memory).
    pub const X: Perm = Perm(0b100);
    /// Read + write.
    pub const RW: Perm = Perm(0b011);

    /// Whether all bits of `other` are granted by `self`.
    #[inline]
    pub fn contains(self, other: Perm) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two permission sets.
    #[inline]
    pub fn union(self, other: Perm) -> Perm {
        Perm(self.0 | other.0)
    }
}

impl std::ops::BitOr for Perm {
    type Output = Perm;
    fn bitor(self, rhs: Perm) -> Perm {
        self.union(rhs)
    }
}

impl fmt::Display for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        s.push(if self.contains(Perm::R) { 'r' } else { '-' });
        s.push(if self.contains(Perm::W) { 'w' } else { '-' });
        s.push(if self.contains(Perm::X) { 'x' } else { '-' });
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_and_distance() {
        let a = VirtAddr(0x1000);
        assert_eq!(a.offset(0x40), VirtAddr(0x1040));
        assert_eq!(VirtAddr(0x1100) - a, 0x100);
    }

    #[test]
    fn perm_contains() {
        assert!(Perm::RW.contains(Perm::R));
        assert!(Perm::RW.contains(Perm::W));
        assert!(!Perm::R.contains(Perm::W));
        assert_eq!(Perm::R | Perm::W, Perm::RW);
    }

    #[test]
    fn display_formats() {
        assert_eq!(VirtAddr(0x10000).to_string(), "0x10000");
        assert_eq!(Perm::RW.to_string(), "rw-");
        assert_eq!((Perm::R | Perm::X).to_string(), "r-x");
        assert_eq!(format!("{:x}", PhysAddr(0xbeef)), "beef");
    }
}
