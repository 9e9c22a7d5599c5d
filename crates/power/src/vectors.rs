//! Random input-vector generation for timing/power simulation.
//!
//! The paper obtains its relative power weights and its DesignPower numbers
//! from "timing simulation with random input vectors"; this module produces
//! those vectors reproducibly (seeded) so every experiment run prints the
//! same table.

use std::collections::BTreeMap;

use cdfg::Cdfg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A reproducible random input-vector generator for one design.
#[derive(Debug, Clone)]
pub struct RandomVectors {
    input_names: Vec<String>,
    bitwidth: u32,
    rng: StdRng,
}

impl RandomVectors {
    /// Creates a generator for the primary inputs of `cdfg`, producing
    /// values uniform in `[0, 2^bitwidth)`.
    pub fn new(cdfg: &Cdfg, seed: u64) -> Self {
        let input_names =
            cdfg.inputs().iter().filter_map(|&n| cdfg.node(n).map(|d| d.name.clone())).collect();
        RandomVectors {
            input_names,
            bitwidth: cdfg.default_bitwidth(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates one input sample.
    pub fn sample(&mut self) -> BTreeMap<String, i64> {
        let max = self.bound();
        self.input_names.iter().map(|name| (name.clone(), self.rng.gen_range(0..max))).collect()
    }

    /// Generates one input sample into `out`, one value per input in
    /// [`RandomVectors::input_names`] order — the layout
    /// `rtl::Simulator::run_dense` reads.  It draws exactly what
    /// [`RandomVectors::sample`] draws, so a seed yields the same vectors
    /// through either call.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold exactly one slot per input.
    pub fn sample_into(&mut self, out: &mut [i64]) {
        assert_eq!(out.len(), self.input_names.len(), "one slot per primary input");
        let max = self.bound();
        for value in out {
            *value = self.rng.gen_range(0..max);
        }
    }

    /// Exclusive upper bound of a drawn value.
    fn bound(&self) -> i64 {
        1i64 << self.bitwidth.min(62)
    }

    /// Generates `n` input samples.
    pub fn samples(&mut self, n: usize) -> Vec<BTreeMap<String, i64>> {
        (0..n).map(|_| self.sample()).collect()
    }

    /// The names of the inputs being driven.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::Op;

    fn design() -> Cdfg {
        let mut g = Cdfg::new("d");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let s = g.add_op(Op::Add, &[a, b]).unwrap();
        g.add_output("s", s).unwrap();
        g
    }

    #[test]
    fn samples_cover_all_inputs_within_range() {
        let g = design();
        let mut v = RandomVectors::new(&g, 7);
        for sample in v.samples(100) {
            assert_eq!(sample.len(), 2);
            for value in sample.values() {
                assert!((0..256).contains(value), "8-bit range");
            }
        }
        assert_eq!(v.input_names(), &["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn dense_samples_draw_the_same_vectors_as_maps() {
        let g = design();
        let mut maps = RandomVectors::new(&g, 42);
        let mut dense = RandomVectors::new(&g, 42);
        let mut buffer = [0i64; 2];
        for _ in 0..50 {
            let sample = maps.sample();
            dense.sample_into(&mut buffer);
            assert_eq!(buffer, [sample["a"], sample["b"]]);
        }
    }

    #[test]
    fn same_seed_reproduces_same_vectors() {
        let g = design();
        let mut v1 = RandomVectors::new(&g, 42);
        let mut v2 = RandomVectors::new(&g, 42);
        assert_eq!(v1.samples(20), v2.samples(20));
        let mut v3 = RandomVectors::new(&g, 43);
        assert_ne!(v1.samples(20), v3.samples(20));
    }
}
