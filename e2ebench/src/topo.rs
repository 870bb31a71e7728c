//! Deterministic generator of large multi-piconet ("metro") topologies.
//!
//! Every piconet is a NAP plus six PANUs whose machine profiles are
//! drawn from the paper's six PANU hosts, with drawn antenna distances
//! and an occasional degraded link. Even piconets run the Random
//! workload and odd ones the Realistic workload: a Random piconet logs
//! about ten times the failures of a Realistic one, so a drawn mix
//! would make the trace size of a seed swing by a third. About a quarter of
//! the piconets lend one PANU as a bridge into the next piconet (mod the
//! piconet count). Only `k -> k + 1` bridges exist, so a piconet takes
//! at most one incoming bridge: six PANUs plus one bridge stays within
//! the seven active members `Topology::validate` allows.

use btpan_core::machine::paper_machines;
use btpan_core::topology::{BridgeSpec, LinkSpec, MachineSpec, PiconetSpec, Topology};
use btpan_workload::WorkloadKind;

/// Piconet `k` owns node ids `k * 10 ..= k * 10 + 6`, its NAP at
/// `k * 10`. Piconet 0's NAP is therefore node 0, the NAP id the
/// single-NAP stream engine relates failures against.
const IDS_PER_PICONET: u64 = 10;
const PANUS_PER_PICONET: u64 = 6;
const DISTANCES_M: [f64; 3] = [0.5, 5.0, 7.0];

/// SplitMix64 stream: tiny, seedable, and fixed forever, so a seed
/// names the same topology on every machine and commit.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives the `index`-th campaign seed of a workload from its `--seed`.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    Mix(seed ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03)).next()
}

/// The metro topology for `seed` with `piconets` piconets.
pub fn generate(seed: u64, piconets: usize) -> Topology {
    let machines = paper_machines();
    let nap = MachineSpec::from_machine(&machines[0]);
    let panu_profiles: Vec<MachineSpec> = machines[1..]
        .iter()
        .map(MachineSpec::from_machine)
        .collect();
    let mut rng = Mix(seed ^ 0x6d65_7472_6f00_0000);
    let mut specs = Vec::with_capacity(piconets);
    for k in 0..piconets as u64 {
        let base = k * IDS_PER_PICONET;
        let mut members = vec![MachineSpec {
            name: format!("{}-{k}", nap.name),
            node_id: base,
            ..nap.clone()
        }];
        for slot in 1..=PANUS_PER_PICONET {
            let profile = &panu_profiles[rng.below(panu_profiles.len() as u64) as usize];
            members.push(MachineSpec {
                name: format!("{}-{k}", profile.name),
                node_id: base + slot,
                distance_m: DISTANCES_M[rng.below(3) as usize],
                fig3b_target: None,
                link: (rng.below(4) == 0).then(|| LinkSpec {
                    drop_scale: 0.5 + 1.5 * rng.unit(),
                }),
                ..profile.clone()
            });
        }
        specs.push(PiconetSpec {
            id: k,
            label: format!("metro-{k}"),
            workload: if k % 2 == 0 {
                WorkloadKind::Random
            } else {
                WorkloadKind::Realistic
            },
            seed_salt: rng.next(),
            machines: members,
        });
    }
    let mut bridges = Vec::new();
    let n = piconets as u64;
    if n >= 2 {
        for k in 0..n {
            if rng.below(4) == 0 {
                bridges.push(BridgeSpec {
                    node_id: k * IDS_PER_PICONET + 1 + rng.below(PANUS_PER_PICONET),
                    joins: vec![(k + 1) % n],
                });
            }
        }
    }
    Topology {
        name: format!("metro-{piconets}-seed{seed}"),
        piconets: specs,
        bridges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_topologies_validate() {
        for seed in 0..40 {
            for piconets in [1, 2, 3, 16, 100] {
                let t = generate(seed, piconets);
                t.validate()
                    .unwrap_or_else(|e| panic!("seed {seed}, {piconets} piconets: {e}"));
                assert_eq!(t.piconets.len(), piconets);
                assert_eq!(t.machine_count(), piconets * 7);
                // Every piconet's NAP is the master its members relate to.
                for p in &t.piconets {
                    for m in p.panus() {
                        assert_eq!(t.masters_of(m.node_id)[0], p.master_id());
                    }
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_dependent() {
        assert_eq!(generate(7, 100), generate(7, 100));
        assert_ne!(generate(7, 100), generate(8, 100));
        let t = generate(7, 100);
        assert!(!t.bridges.is_empty(), "a 100-piconet metro has bridges");
        assert_eq!(t.piconets[0].master_id(), 0);
    }
}
