//! Buddy allocator for the NPU's global memory (HBM/DRAM).
//!
//! The paper's hypervisor "utilizes the traditional buddy system for memory
//! allocation, and records address mappings in the range translation table.
//! Unlike the page table which needs to partition blocks from the buddy
//! system into fixed-size pages, vNPU maps an entire block directly into
//! the RTT entry with the block size" (§5.2). [`BuddyAllocator::alloc`]
//! therefore returns the *whole block* (address + rounded-up size) so the
//! caller can install it as a single range.

use crate::{MemError, PhysAddr, Result};
use std::collections::{BTreeSet, HashMap};

/// A power-of-two buddy allocator over a contiguous physical region.
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    base: PhysAddr,
    min_block: u64,
    /// `free[o]` holds offsets (from `base`) of free blocks of size
    /// `min_block << o`.
    free: Vec<BTreeSet<u64>>,
    /// Allocated block start offset → order.
    allocated: HashMap<u64, usize>,
    total: u64,
    in_use: u64,
}

/// A block handed out by [`BuddyAllocator::alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Physical start address.
    pub addr: PhysAddr,
    /// Block size in bytes (power of two, ≥ the requested size).
    pub size: u64,
}

impl BuddyAllocator {
    /// Creates an allocator managing `total` bytes starting at `base`, with
    /// the given minimum block size.
    ///
    /// # Panics
    ///
    /// Panics if `min_block` is not a power of two, or `total` is not a
    /// multiple of `min_block`, or `total == 0`.
    pub fn new(base: PhysAddr, total: u64, min_block: u64) -> Self {
        assert!(
            min_block.is_power_of_two(),
            "min_block must be a power of two"
        );
        assert!(
            total > 0 && total % min_block == 0,
            "total must be a positive multiple of min_block"
        );
        let max_order = (total / min_block).ilog2() as usize;
        let mut free: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); max_order + 1];
        // Seed with maximal blocks greedily (handles non-power-of-two totals).
        let mut off = 0u64;
        while off < total {
            let remaining = total - off;
            let mut o = max_order;
            loop {
                let sz = min_block << o;
                if sz <= remaining && off % sz == 0 {
                    free[o].insert(off);
                    off += sz;
                    break;
                }
                o -= 1;
            }
        }
        BuddyAllocator {
            base,
            min_block,
            free,
            allocated: HashMap::new(),
            total,
            in_use: 0,
        }
    }

    /// Total managed bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.total - self.in_use
    }

    /// The smallest order whose blocks hold `size` bytes, if the
    /// allocator has blocks that large.
    fn order_for(&self, size: u64) -> Option<usize> {
        (0..self.free.len()).find(|&o| self.min_block << o >= size)
    }

    /// Allocates a block of at least `size` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] if no sufficiently large block is
    /// free (external fragmentation counts: the buddy system cannot merge
    /// non-buddy neighbors).
    pub fn alloc(&mut self, size: u64) -> Result<Block> {
        if size == 0 {
            return Err(MemError::OutOfMemory { requested: 0 });
        }
        let Some(want) = self.order_for(size) else {
            return Err(MemError::OutOfMemory { requested: size });
        };
        // Find the smallest order ≥ want with a free block.
        let mut o = want;
        while o < self.free.len() && self.free[o].is_empty() {
            o += 1;
        }
        if o == self.free.len() {
            return Err(MemError::OutOfMemory { requested: size });
        }
        let off = *self.free[o].iter().next().expect("non-empty set");
        self.free[o].remove(&off);
        // Split down to the wanted order.
        while o > want {
            o -= 1;
            let buddy = off + (self.min_block << o);
            self.free[o].insert(buddy);
        }
        self.allocated.insert(off, want);
        let bytes = self.min_block << want;
        self.in_use += bytes;
        Ok(Block {
            addr: self.base.offset(off),
            size: bytes,
        })
    }

    /// Frees a previously allocated block, coalescing buddies.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidFree`] if `addr` is not the start of a
    /// live allocation.
    pub fn free(&mut self, addr: PhysAddr) -> Result<()> {
        let off = addr
            .value()
            .checked_sub(self.base.value())
            .ok_or(MemError::InvalidFree { pa: addr })?;
        let order = self
            .allocated
            .remove(&off)
            .ok_or(MemError::InvalidFree { pa: addr })?;
        self.in_use -= self.min_block << order;
        let mut off = off;
        let mut o = order;
        // Coalesce while the buddy is free.
        while o + 1 < self.free.len() {
            let buddy = off ^ (self.min_block << o);
            if self.free[o].remove(&buddy) {
                off = off.min(buddy);
                o += 1;
            } else {
                break;
            }
        }
        self.free[o].insert(off);
        Ok(())
    }

    /// Largest currently-free block size in bytes (0 when full).
    pub fn largest_free_block(&self) -> u64 {
        for o in (0..self.free.len()).rev() {
            if !self.free[o].is_empty() {
                return self.min_block << o;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc_kb(b: &mut BuddyAllocator, kb: u64) -> Block {
        b.alloc(kb * 1024).unwrap()
    }

    #[test]
    fn oversized_requests_are_refused_not_a_hang() {
        let mut b = BuddyAllocator::new(PhysAddr(0), 1 << 30, 2 << 20);
        let free = b.free_bytes();
        for size in [u64::MAX, (1 << 63) + 1] {
            assert_eq!(
                b.alloc(size),
                Err(MemError::OutOfMemory { requested: size })
            );
            assert_eq!(b.free_bytes(), free);
        }
        let top = BuddyAllocator::new(PhysAddr(0), 1 << 63, 4096);
        assert_eq!(top.largest_free_block(), 1 << 63);
    }

    #[test]
    fn rounds_to_power_of_two() {
        let mut b = BuddyAllocator::new(PhysAddr(0), 1 << 20, 4096);
        let blk = b.alloc(5000).unwrap();
        assert_eq!(blk.size, 8192);
        assert_eq!(b.free_bytes(), (1 << 20) - 8192);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut b = BuddyAllocator::new(PhysAddr(0x1000_0000), 1 << 20, 4096);
        let mut blocks = Vec::new();
        for i in 1..=20u64 {
            blocks.push(b.alloc(i * 3000).unwrap());
        }
        blocks.sort_by_key(|blk| blk.addr);
        for w in blocks.windows(2) {
            assert!(
                w[0].addr.value() + w[0].size <= w[1].addr.value(),
                "overlap between {:?} and {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn free_and_coalesce_restores_full_block() {
        let mut b = BuddyAllocator::new(PhysAddr(0), 1 << 20, 4096);
        let a1 = alloc_kb(&mut b, 256);
        let a2 = alloc_kb(&mut b, 256);
        let a3 = alloc_kb(&mut b, 512);
        assert_eq!(b.free_bytes(), 0);
        b.free(a1.addr).unwrap();
        b.free(a2.addr).unwrap();
        b.free(a3.addr).unwrap();
        assert_eq!(b.free_bytes(), 1 << 20);
        assert_eq!(b.largest_free_block(), 1 << 20);
        // And the whole megabyte is allocatable again.
        let big = b.alloc(1 << 20).unwrap();
        assert_eq!(big.size, 1 << 20);
    }

    #[test]
    fn out_of_memory() {
        let mut b = BuddyAllocator::new(PhysAddr(0), 64 * 1024, 4096);
        assert!(matches!(
            b.alloc(128 * 1024),
            Err(MemError::OutOfMemory { requested }) if requested == 128 * 1024
        ));
        let _ = b.alloc(64 * 1024).unwrap();
        assert!(b.alloc(4096).is_err());
    }

    #[test]
    fn double_free_rejected() {
        let mut b = BuddyAllocator::new(PhysAddr(0), 1 << 20, 4096);
        let blk = b.alloc(4096).unwrap();
        b.free(blk.addr).unwrap();
        assert_eq!(
            b.free(blk.addr),
            Err(MemError::InvalidFree { pa: blk.addr })
        );
    }

    #[test]
    fn free_of_interior_address_rejected() {
        let mut b = BuddyAllocator::new(PhysAddr(0), 1 << 20, 4096);
        let blk = b.alloc(8192).unwrap();
        assert!(b.free(blk.addr.offset(4096)).is_err());
        assert!(b.free(PhysAddr(0xffff_ffff)).is_err());
    }

    #[test]
    fn zero_alloc_rejected() {
        let mut b = BuddyAllocator::new(PhysAddr(0), 1 << 20, 4096);
        assert!(b.alloc(0).is_err());
    }

    #[test]
    fn fragmentation_limits_largest_block() {
        let mut b = BuddyAllocator::new(PhysAddr(0), 64 * 1024, 4096);
        // Carve into sixteen 4 KiB blocks, free every other one: plenty of
        // free bytes, but nothing larger than 4 KiB.
        let blocks: Vec<Block> = (0..16).map(|_| b.alloc(4096).unwrap()).collect();
        for blk in blocks.iter().step_by(2) {
            b.free(blk.addr).unwrap();
        }
        assert_eq!(b.free_bytes(), 32 * 1024);
        assert_eq!(b.largest_free_block(), 4096);
        assert!(b.alloc(8192).is_err());
    }

    #[test]
    fn base_offset_respected() {
        let mut b = BuddyAllocator::new(PhysAddr(0x8000_0000), 1 << 20, 4096);
        let blk = b.alloc(4096).unwrap();
        assert!(blk.addr.value() >= 0x8000_0000);
        b.free(blk.addr).unwrap();
    }

    #[test]
    fn non_power_of_two_total_seeds_multiple_roots() {
        // 3 MiB total: should seed a 2 MiB and a 1 MiB root block.
        let mut b = BuddyAllocator::new(PhysAddr(0), 3 << 20, 4096);
        let a = b.alloc(2 << 20).unwrap();
        let c = b.alloc(1 << 20).unwrap();
        assert_eq!(a.size + c.size, 3 << 20);
        assert!(b.alloc(4096).is_err());
    }
}
