//! Fast-path fidelity: the geometric sampling from a calibrated
//! [`DropProfile`] must agree with direct slot-level simulation of the
//! same channel — the bridge that lets campaigns skip 10^10 slots — and
//! the exact profile must agree with both Monte-Carlo estimates.

use btpan_baseband::channel::GilbertElliott;
use btpan_baseband::hop::HopSequence;
use btpan_baseband::link::{AclLink, DropProfile, LinkConfig};
use btpan_baseband::packet::PacketType;
use btpan_sim::prelude::*;

fn channel() -> GilbertElliott {
    GilbertElliott::new(1e-2, 0.08, 5e-6, 0.12)
}

/// Batches per confidence interval, and the two-sided 99 % Student-t
/// quantile for their 39 degrees of freedom.
const BATCHES: usize = 40;
const T99_DF39: f64 = 2.7079;

/// Mean and 99 % half-width of the batch means `xs`. Bursts correlate
/// consecutive drops, so a binomial interval over single payloads
/// would be too narrow; batch means of thousands of payloads each are
/// close to independent.
fn ci99(xs: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), BATCHES);
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, T99_DF39 * (var / n).sqrt())
}

/// Drop fraction of the next `payloads` payloads on `link`, counted the
/// way `DropProfile::calibrate` counts them.
fn direct_drop_rate(link: &mut AclLink<GilbertElliott>, payloads: u64, rng: &mut SimRng) -> f64 {
    let mut sent = 0u64;
    let mut dropped = 0u64;
    while sent < payloads {
        let out = link.send_payloads(64.min(payloads - sent), rng);
        sent += out.payloads_delivered;
        if out.dropped_at.is_some() {
            dropped += 1;
            sent += 1;
        }
    }
    dropped as f64 / sent as f64
}

#[test]
fn exact_profile_inside_monte_carlo_ci() {
    // Each batch is an independent 5 000-payload `calibrate` run, so
    // the batch means are independent by construction.
    for seed in 1..=3u64 {
        for pt in PacketType::ALL {
            let cfg = LinkConfig::new(pt).retry_limit(4);
            let exact = DropProfile::exact(cfg, &channel());
            let root = SimRng::seed_from(seed).fork_indexed("oracle", pt.index() as u64);
            let batches: Vec<f64> = (0..BATCHES as u64)
                .map(|b| {
                    let mut rng = root.fork_indexed("batch", b);
                    let hop = HopSequence::new(seed * 1_000 + b);
                    DropProfile::calibrate(cfg, channel(), hop, 5_000, &mut rng).p_drop
                })
                .collect();
            let (mean, half) = ci99(&batches);
            assert!(
                (exact.p_drop - mean).abs() <= half,
                "seed {seed} {pt}: exact {} outside Monte-Carlo {mean} ± {half}",
                exact.p_drop
            );
        }
    }
}

#[test]
fn exact_profile_matches_long_direct_run() {
    // One continuous link per configuration, cut into consecutive
    // 10 000-payload batches; a slot-share case checks the idle-slot
    // folding too.
    let configs = PacketType::ALL
        .map(|pt| LinkConfig::new(pt).retry_limit(4))
        .into_iter()
        .chain([LinkConfig::new(PacketType::Dh3)
            .retry_limit(4)
            .slot_share(0.5)]);
    for (i, cfg) in configs.enumerate() {
        let exact = DropProfile::exact(cfg, &channel());
        let mut link = AclLink::new(cfg, channel(), HopSequence::new(77));
        let mut rng = SimRng::seed_from(0xD1CE).fork_indexed("direct", i as u64);
        let batches: Vec<f64> = (0..BATCHES)
            .map(|_| direct_drop_rate(&mut link, 10_000, &mut rng))
            .collect();
        let (mean, half) = ci99(&batches);
        assert!(
            (exact.p_drop - mean).abs() <= half,
            "{cfg:?}: exact {} outside direct {mean} ± {half}",
            exact.p_drop
        );
    }
}

#[test]
fn fast_path_drop_rate_matches_direct_simulation() {
    let cfg = LinkConfig::new(PacketType::Dh1).retry_limit(4);
    let mut rng = SimRng::seed_from(0xF1DE);

    // Calibrate the profile on one stream...
    let profile = DropProfile::calibrate(cfg, channel(), HopSequence::new(1), 150_000, &mut rng);

    // ...then measure the drop rate directly on an independent stream.
    let mut link = AclLink::new(cfg, channel(), HopSequence::new(2));
    let direct = direct_drop_rate(&mut link, 150_000, &mut SimRng::seed_from(0xD1CE));
    assert!(
        direct > 0.0 && profile.p_drop > 0.0,
        "degenerate rates: direct {direct}, profile {}",
        profile.p_drop
    );
    let ratio = profile.p_drop / direct;
    assert!(
        (0.6..1.7).contains(&ratio),
        "fast path diverged: profile {} vs direct {direct} (ratio {ratio})",
        profile.p_drop
    );

    // Transfer-level agreement: P(clean transfer of 500 payloads).
    let clean_fast = profile.p_transfer_clean(500);
    let mut clean_direct = 0u32;
    let trials: u64 = 400;
    for t in 0..trials {
        let mut link = AclLink::new(cfg, channel(), HopSequence::new(100 + t));
        let mut r = SimRng::seed_from(9_000 + t);
        if link.send_payloads(500, &mut r).dropped_at.is_none() {
            clean_direct += 1;
        }
    }
    let direct_frac = f64::from(clean_direct) / trials as f64;
    assert!(
        (clean_fast - direct_frac).abs() < 0.15,
        "clean-transfer probability: fast {clean_fast} vs direct {direct_frac}"
    );
}

#[test]
fn per_type_ordering_stable_across_streams() {
    // The Fig. 3a per-byte ordering must not depend on the RNG stream.
    let order = |seed: u64| -> Vec<PacketType> {
        let mut rng = SimRng::seed_from(seed);
        let mut rates: Vec<(PacketType, f64)> = PacketType::ALL
            .iter()
            .map(|&pt| {
                let prof = DropProfile::calibrate(
                    LinkConfig::new(pt).retry_limit(4),
                    channel(),
                    HopSequence::new(seed),
                    60_000,
                    &mut rng,
                );
                (pt, prof.p_drop / f64::from(pt.max_payload_bytes()))
            })
            .collect();
        rates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        rates.into_iter().map(|(pt, _)| pt).collect()
    };
    let a = order(1);
    let b = order(2);
    // The extreme ends must be stable: DM1 worst per byte, DH5 best.
    assert_eq!(a[0], PacketType::Dm1, "{a:?}");
    assert_eq!(b[0], PacketType::Dm1, "{b:?}");
    assert_eq!(*a.last().unwrap(), PacketType::Dh5, "{a:?}");
    assert_eq!(*b.last().unwrap(), PacketType::Dh5, "{b:?}");
}
