//! Seeded input tables. Everything a workload sends is drawn once from
//! `SimRng::new(seed)` before the run; the program under test receives
//! only these inputs, never the seed.
//!
//! Each table is a seeded shuffle of a fixed multiset, shuffled block by
//! block: every seed sends the same mix of sizes and ops, and so does every
//! stretch of a table, in a different order. The modeled metrics of two
//! seeds then differ by scheduling effects only and stay inside the
//! regression bounds the driver checks across seeds.

use bytes::Bytes;
use loadgen::Population;
use simcore::SimRng;

/// Entries in a closed-loop table, indexed by `(worker, iteration)`: longer
/// than any worker's run, so no worker replays a stretch it already sent.
pub const TABLE_LEN: usize = 4096;
/// Entries in the social table: more than one window issues, so the Zipf
/// hot-key tail is not truncated by cycling a short table.
pub const SOCIAL_TABLE_LEN: usize = 1 << 16;

pub const KIB: usize = 1024;
/// Chain argument sizes: 1 KiB stays inline (size-aware transfer), the
/// rest go by reference under DmRPC.
pub const CHAIN_SIZES: [usize; 5] = [KIB, 4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB];
/// Shared block of the COW workload (paper Fig. 8).
pub const SHARE_BLOCK: usize = 32 * KIB;
/// Callee write percentages: a third of the requests are read-only.
pub const SHARE_WRITE_PCT: [u8; 6] = [0, 0, 10, 25, 50, 100];
pub const IMAGE_SIZES: [usize; 4] = [4 * KIB, 8 * KIB, 32 * KIB, 128 * KIB];
/// Size mix in eighths (2:3:2:1), chosen so that neither the median nor
/// p99 sits on the border between two sizes, where it would jump with
/// the seed.
const IMAGE_SIZE_MIX: [u8; 8] = [0, 0, 1, 1, 1, 2, 2, 3];

/// The social population is pinned (ROADMAP's SF=10 knee), not seeded:
/// the seed picks which users act, not who follows whom.
pub const SOCIAL_SF: u32 = 10;
pub const SOCIAL_POP_SEED: u64 = 42;
/// `Population::new(10, 42).digest()`, pinned so a change to the
/// generator shows as a failed run, not as a moved knee.
pub const SOCIAL_POP_DIGEST: u64 = 0x484B_C85B_64AD_111F;
pub const SOCIAL_MEDIA: usize = 8 * KIB;

/// Table slot (before the modulus) of closed-loop worker `worker`'s
/// `iteration`-th op: each worker starts 256 entries after the previous one.
pub fn slot(worker: usize, iteration: u64) -> usize {
    worker * 256 + iteration as usize
}

/// `len` entries cycling through `classes` values, Fisher–Yates shuffled
/// within blocks of `8 * classes`, so every block holds the exact mix.
fn shuffled_classes(rng: &SimRng, len: usize, classes: usize) -> Vec<u8> {
    let mut t: Vec<u8> = (0..len).map(|i| (i % classes) as u8).collect();
    for block in t.chunks_mut(8 * classes) {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.gen_range(i as u64 + 1) as usize);
        }
    }
    t
}

fn random_bytes(rng: &SimRng, len: usize) -> Bytes {
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    Bytes::from(buf)
}

/// Inputs of both chain workloads: one random payload per size class and
/// the expected aggregate the last service must return for it.
pub struct ChainInputs {
    pub payloads: Vec<Bytes>,
    pub sums: Vec<u64>,
    pub table: Vec<u8>,
}

impl ChainInputs {
    pub fn new(seed: u64) -> ChainInputs {
        let rng = SimRng::new(seed);
        let payloads: Vec<Bytes> = CHAIN_SIZES.iter().map(|&s| random_bytes(&rng, s)).collect();
        let sums = payloads
            .iter()
            .map(|p| p.iter().map(|&b| b as u64).sum())
            .collect();
        let table = shuffled_classes(&rng, TABLE_LEN, CHAIN_SIZES.len());
        ChainInputs {
            payloads,
            sums,
            table,
        }
    }
}

pub struct ShareInputs {
    pub block: Bytes,
    /// Index into [`SHARE_WRITE_PCT`].
    pub table: Vec<u8>,
}

impl ShareInputs {
    pub fn new(seed: u64) -> ShareInputs {
        let rng = SimRng::new(seed);
        ShareInputs {
            block: random_bytes(&rng, SHARE_BLOCK),
            table: shuffled_classes(&rng, TABLE_LEN, SHARE_WRITE_PCT.len()),
        }
    }
}

pub struct ImageInputs {
    pub images: Vec<Bytes>,
    /// `class = mix_slot * 2 + op` with `mix_slot` an index into the size
    /// mix, so every size is sent equally often with either op.
    pub table: Vec<u8>,
}

impl ImageInputs {
    pub fn new(seed: u64) -> ImageInputs {
        let rng = SimRng::new(seed);
        ImageInputs {
            images: IMAGE_SIZES.iter().map(|&s| random_bytes(&rng, s)).collect(),
            table: shuffled_classes(&rng, TABLE_LEN, IMAGE_SIZE_MIX.len() * 2),
        }
    }

    /// `(size index, op: 0 = transcode, 1 = compress)` of a table class.
    pub fn decode(class: u8) -> (usize, usize) {
        (
            IMAGE_SIZE_MIX[class as usize / 2] as usize,
            class as usize % 2,
        )
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SocialOp {
    ReadHome(u32),
    ReadUser(u32),
    Compose(u32),
}

pub struct SocialInputs {
    pub pop: Population,
    pub table: Vec<SocialOp>,
}

impl SocialInputs {
    pub fn population() -> Population {
        Population::new(SOCIAL_SF, SOCIAL_POP_SEED)
    }

    /// The paper's 60/30/10 mix as an exact 6:3:1 pattern, shuffled; readers
    /// are Zipf hot keys, composers uniform (what `mixed_request` draws).
    pub fn new(seed: u64) -> SocialInputs {
        let rng = SimRng::new(seed);
        let pop = SocialInputs::population();
        let zipf = simcore::Zipf::new(rng.fork(), pop.users() as usize, loadgen::ZIPF_THETA);
        let classes = shuffled_classes(&rng, SOCIAL_TABLE_LEN, 10);
        let table = classes
            .into_iter()
            .map(|c| match c {
                0..=5 => SocialOp::ReadHome(zipf.sample() as u32),
                6..=8 => SocialOp::ReadUser(zipf.sample() as u32),
                _ => SocialOp::Compose(rng.gen_range(pop.users() as u64) as u32),
            })
            .collect();
        SocialInputs { pop, table }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tables_other_seed_other_order() {
        let (a, b, c) = (
            ChainInputs::new(7),
            ChainInputs::new(7),
            ChainInputs::new(8),
        );
        assert_eq!(a.table, b.table);
        assert_eq!(a.payloads, b.payloads);
        assert_ne!(a.table, c.table);
        assert_ne!(a.payloads[0], c.payloads[0]);
        assert_eq!(SocialInputs::new(7).table, SocialInputs::new(7).table);
        assert_ne!(SocialInputs::new(7).table, SocialInputs::new(8).table);
        assert_ne!(ShareInputs::new(7).table, ShareInputs::new(8).table);
        assert_ne!(ImageInputs::new(7).table, ImageInputs::new(8).table);
    }

    #[test]
    fn every_seed_sends_the_same_multiset() {
        let count = |t: &[u8], c: u8| t.iter().filter(|&&x| x == c).count();
        for class in 0..CHAIN_SIZES.len() as u8 {
            assert_eq!(
                count(&ChainInputs::new(1).table, class),
                count(&ChainInputs::new(99).table, class)
            );
        }
        let composes = |s: u64| {
            SocialInputs::new(s)
                .table
                .iter()
                .filter(|op| matches!(op, SocialOp::Compose(_)))
                .count()
        };
        assert_eq!(composes(1), composes(99));
    }

    #[test]
    fn population_digest_is_pinned() {
        assert_eq!(SocialInputs::population().digest(), SOCIAL_POP_DIGEST);
    }
}
