//! The seeded request stream of the served workloads.
//!
//! Requests are drawn in rounds. Each round is a seeded shuffle of
//! every job in the pool, so every job is requested equally often and
//! the mix of a run does not depend on the seed; only the order does.

/// SplitMix64: one step of a 64-bit generator that mixes any seed well.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The order of round `round` over `n` items: a Fisher–Yates shuffle of
/// `0..n` from a generator keyed by `seed` and `round`.
fn round_order(seed: u64, round: u64, n: usize) -> Vec<usize> {
    let mut state = seed ^ splitmix(&mut round.wrapping_mul(0xa076_1d64_78bd_642f));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The item of operation `i` in the stream over `n` items.
#[must_use]
pub fn draw(seed: u64, i: usize, n: usize) -> usize {
    round_order(seed, (i / n) as u64, n)[i % n]
}
