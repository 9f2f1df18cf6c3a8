//! Differential fuzz of the packed tag-plane [`CacheArray`] against the
//! scalar [`RefCacheArray`] reference model.
//!
//! The packed array is the simulator's hot path and earns its speed from
//! bit-packed tag/meta planes, branchless probes, and precomputed masks —
//! none of which may change architectural behavior. This test drives both
//! implementations access-for-access with a seeded operation mix (probe,
//! touch + meta mutation, fill, invalidate) over direct-mapped through
//! 8-way geometries crossed with subblock line sizes, comparing every
//! return value and, periodically, the full sorted content snapshots.
//! Over a million accesses total — any divergence names the geometry,
//! operation index, and address that produced it.

mod reference;

use gaas_cache::{CacheArray, CacheGeometry};
use gaas_trace::rng::SmallRng;
use gaas_trace::PhysAddr;
use reference::RefCacheArray;

/// Accesses per geometry; the suite crosses 8 geometries for >1.2M total.
const OPS_PER_GEOMETRY: usize = 160_000;

/// Full-snapshot comparison interval (snapshots are O(lines · log lines)).
const SNAPSHOT_EVERY: usize = 20_000;

/// (size_words, line_words, assoc): direct-mapped through 8-way, crossed
/// with line sizes from single-word to the 32-word subblock-mask limit.
const GEOMETRIES: [(u64, u32, u32); 8] = [
    (512, 4, 1),   // direct-mapped, short line
    (512, 32, 1),  // direct-mapped, widest subblock mask
    (1024, 8, 2),  // 2-way
    (256, 16, 2),  // 2-way, few sets (heavy conflict)
    (2048, 4, 4),  // 4-way
    (1024, 32, 4), // 4-way, widest line
    (4096, 8, 8),  // 8-way
    (64, 8, 8),    // 8-way single-set (pure LRU stress)
];

/// Addresses are drawn from a window of a few cache sizes so sets and
/// lines collide constantly, with occasional far jumps to roll tags over.
fn pick_addr(rng: &mut SmallRng, size_words: u64) -> PhysAddr {
    let word = if rng.gen_bool(0.02) {
        rng.gen_range(0u64..1 << 30)
    } else {
        rng.gen_range(0u64..size_words * 4)
    };
    PhysAddr::new(word)
}

fn assert_same_snapshot(packed: &CacheArray, reference: &RefCacheArray, ctx: &str) {
    assert_eq!(
        packed.content_snapshot(),
        reference.content_snapshot(),
        "content snapshots diverged {ctx}"
    );
    assert_eq!(
        packed.occupancy(),
        reference.occupancy(),
        "occupancy diverged {ctx}"
    );
}

#[test]
fn packed_array_matches_reference_across_geometries() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    let mut total_ops = 0usize;
    for &(size, line, assoc) in &GEOMETRIES {
        let geom = CacheGeometry::new(size, line, assoc).expect("valid geometry");
        let full_mask = geom.full_subblock_mask();
        let mut packed = CacheArray::new(geom);
        let mut reference = RefCacheArray::new(geom);
        for op in 0..OPS_PER_GEOMETRY {
            let addr = pick_addr(&mut rng, size);
            let ctx = || format!("(geometry {size}w/{line}l/{assoc}a, op {op}, addr {addr:?})");
            match rng.gen_range(0u32..10) {
                // Read-only probes: no state change, results must agree.
                0 => {
                    assert_eq!(packed.contains(addr), reference.contains(addr), "{}", ctx());
                    let p = packed.peek(addr);
                    let r = reference.peek(addr);
                    assert_eq!(p.is_some(), r.is_some(), "peek residency {}", ctx());
                    if let (Some(p), Some(r)) = (p, r) {
                        assert_eq!(
                            (p.base, p.dirty, p.write_only, p.subblock_valid),
                            (r.base, r.dirty, r.write_only, r.subblock_valid),
                            "peeked line state {}",
                            ctx()
                        );
                    }
                }
                // Touch + a random meta mutation through both line handles.
                1..=4 => {
                    let mutation = rng.gen_range(0u32..5);
                    let dirty = rng.gen_bool(0.5);
                    let wo = rng.gen_bool(0.5);
                    let bits = rng.gen_range(0u32..=full_mask);
                    let p = packed.touch(addr);
                    let r = reference.touch(addr);
                    assert_eq!(p.is_some(), r.is_some(), "touch residency {}", ctx());
                    if let (Some(mut p), Some(r)) = (p, r) {
                        assert_eq!(
                            (p.base(), p.dirty(), p.write_only(), p.subblock_valid()),
                            (r.base, r.dirty, r.write_only, r.subblock_valid),
                            "touched line state {}",
                            ctx()
                        );
                        match mutation {
                            0 => {
                                p.set_dirty(dirty);
                                r.dirty = dirty;
                            }
                            1 => {
                                p.set_write_only(wo);
                                r.write_only = wo;
                            }
                            2 => {
                                p.set_subblock_valid(bits);
                                r.subblock_valid = bits;
                            }
                            3 => {
                                p.or_subblock(bits);
                                r.subblock_valid |= bits;
                            }
                            _ => {} // plain LRU touch
                        }
                    }
                }
                // Fill: victim choice and displaced-line state must agree.
                5..=8 => {
                    let p = packed.fill(addr);
                    let r = reference.fill(addr);
                    assert_eq!(p, r, "fill eviction {}", ctx());
                }
                // Invalidate: the removed line must agree.
                _ => {
                    let p = packed.invalidate(addr);
                    let r = reference.invalidate(addr);
                    assert_eq!(p.is_some(), r.is_some(), "invalidate residency {}", ctx());
                    if let (Some(p), Some(r)) = (p, r) {
                        assert_eq!(
                            (p.base, p.dirty, p.write_only, p.subblock_valid),
                            (r.base, r.dirty, r.write_only, r.subblock_valid),
                            "invalidated line state {}",
                            ctx()
                        );
                    }
                }
            }
            if (op + 1) % SNAPSHOT_EVERY == 0 {
                assert_same_snapshot(&packed, &reference, &ctx());
            }
        }
        assert_same_snapshot(
            &packed,
            &reference,
            &format!("(geometry {size}w/{line}l/{assoc}a, final)"),
        );
        total_ops += OPS_PER_GEOMETRY;
    }
    assert!(
        total_ops >= 1_000_000,
        "differential fuzz must cover at least a million accesses, ran {total_ops}"
    );
}
