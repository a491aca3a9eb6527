//! Consistent-hash placement for the sharded DM plane (DESIGN.md §13).
//!
//! A [`HashRing`] places client-minted *global ref keys* (gkeys) across N
//! DM servers: each server contributes [`VNODES`] points on a
//! u64 ring, every point a pure hash of `(seed, server, vnode)`, and a
//! gkey homes at the first point clockwise of its own hash. The ring is a
//! pure function of `(n_servers, seed)` — every client in a
//! simulation builds bit-identical rings with no coordination, and two
//! runs with the same seed place every ref identically (the determinism
//! contract of the whole simulator).
//!
//! Virtual nodes give the classic stability property: growing the pool
//! from N to N+1 servers re-homes only ~1/(N+1) of the keys (tested as a
//! ≤ 2/N oracle in `tests/shard.rs`), which is what makes ownership
//! migration (the MIGRATE protocol op) a rebalancing tool rather than a
//! full reshuffle.

use dmcommon::DmServerId;

/// Bit 63 of a ref key marks a *global* key minted by a sharded client.
/// Local keys are a counter from 1 and never reach bit 63, so the bit is
/// free (asserted where `PageManager` mints a key).
pub const GKEY_BIT: u64 = 1 << 63;

/// Ring points per server. More points smooth placement and shrink the
/// variance of the N→N+1 movement fraction.
pub const VNODES: usize = 64;

/// SplitMix64: the statistically solid 64-bit mixer used for both ring
/// points and key hashes. Pure and dependency-free, so every client and
/// every run agrees.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The consistent-hash ring: sorted `(point, server)` pairs plus the
/// topology epoch that client caches key their relocation entries under.
#[derive(Clone, Debug)]
pub struct HashRing {
    points: Vec<(u64, u8)>,
    n_servers: usize,
    seed: u64,
    epoch: u64,
}

impl HashRing {
    /// Build the ring for `n_servers` servers at topology epoch 0.
    pub fn new(n_servers: usize, seed: u64) -> HashRing {
        HashRing::at_epoch(n_servers, seed, 0)
    }

    fn at_epoch(n_servers: usize, seed: u64, epoch: u64) -> HashRing {
        assert!(n_servers >= 1, "ring needs at least one server");
        assert!(n_servers <= u8::MAX as usize + 1, "DmServerId is a u8");
        let mut points = Vec::with_capacity(n_servers * VNODES);
        for server in 0..n_servers {
            for v in 0..VNODES {
                let point = mix64(
                    seed ^ ((server as u64) << 32 | v as u64).wrapping_mul(0xA24B_AED4_963E_E407),
                );
                points.push((point, server as u8));
            }
        }
        // Ties (astronomically rare) resolve by server id so every client
        // sorts identically.
        points.sort_unstable();
        HashRing {
            points,
            n_servers,
            seed,
            epoch,
        }
    }

    /// Home server of `key`: the first ring point clockwise of the key's
    /// hash (wrapping past the top of the u64 space).
    pub fn route(&self, key: u64) -> DmServerId {
        let h = mix64(key ^ self.seed);
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, server) = self.points[idx % self.points.len()];
        DmServerId(server)
    }

    /// Topology epoch: bumps on every [`HashRing::grow`], invalidating
    /// relocation caches keyed to the old topology.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of servers on the ring.
    pub fn n_servers(&self) -> usize {
        self.n_servers
    }

    /// The ring for the same pool grown by one server (epoch + 1). Only
    /// keys whose arc the new server's points claim re-home — ~1/(N+1)
    /// of them.
    pub fn grow(&self) -> HashRing {
        HashRing::at_epoch(self.n_servers + 1, self.seed, self.epoch + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic() {
        let a = HashRing::new(4, 42);
        let b = HashRing::new(4, 42);
        for k in 0..10_000u64 {
            assert_eq!(a.route(k), b.route(k));
        }
        assert_eq!(a.points, b.points);
    }

    #[test]
    fn different_seeds_place_differently() {
        let a = HashRing::new(4, 1);
        let b = HashRing::new(4, 2);
        let moved = (0..10_000u64).filter(|&k| a.route(k) != b.route(k)).count();
        assert!(moved > 5_000, "seed must reshuffle placement ({moved})");
    }

    #[test]
    fn placement_covers_all_servers_roughly_evenly() {
        let ring = HashRing::new(8, 7);
        let mut counts = [0usize; 8];
        for k in 0..80_000u64 {
            counts[ring.route(k).0 as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            // Each server holds its fair share within a loose 2x band.
            assert!(c > 5_000 && c < 20_000, "server {i} holds {c}");
        }
    }

    #[test]
    fn grow_moves_a_small_fraction_and_bumps_epoch() {
        let ring = HashRing::new(8, 3);
        let grown = ring.grow();
        assert_eq!(grown.epoch(), ring.epoch() + 1);
        assert_eq!(grown.n_servers(), 9);
        let keys = 40_000u64;
        let moved = (0..keys)
            .filter(|&k| ring.route(k) != grown.route(k))
            .count();
        // Expected ~1/9; the oracle bound is 2/N = 1/4.
        assert!(
            (moved as f64) < keys as f64 * 2.0 / 8.0,
            "grow moved {moved}/{keys}"
        );
        // And everything that moved went to the new server.
        for k in 0..keys {
            if ring.route(k) != grown.route(k) {
                assert_eq!(grown.route(k), DmServerId(8));
            }
        }
    }

    #[test]
    fn mix64_reference_values() {
        // SplitMix64 known-answer vectors (seed 0 stream).
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(1), 0x910A_2DEC_8902_5CC1);
    }
}
