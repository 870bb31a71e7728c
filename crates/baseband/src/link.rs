//! ACL link with ARQ and retransmission limit.
//!
//! Baseband integrity works as follows (BT 1.1 §IV): every payload
//! carries a CRC; a corrupted payload is NAK'd and retransmitted.
//! "Retransmissions at the Baseband level are allowed up to a certain
//! limit at which the current payload is dropped and the next payload is
//! considered" — the mechanism the paper blames for Fig. 3a. This module
//! simulates that loop slot by slot:
//!
//! * the 18-bit header is protected by 1/3-rate repetition FEC; a header
//!   loss means no ACK and a wasted attempt;
//! * `DMx` payloads decode codeword-by-codeword through the (15,10)
//!   Hamming model; `DHx` payloads need every bit intact;
//! * a corrupted payload can *escape* the CRC (probability from
//!   [`crate::crc::undetected_probability`], burst-length dependent) and
//!   be delivered corrupt — the paper's `Data mismatch`;
//! * the ACK travels on the return slot and can itself be lost, forcing
//!   a redundant retransmission (deduplicated by the SEQN bit).
//!
//! Because a full 18-month campaign cannot run at slot fidelity, the
//! module also provides [`DropProfile`]: a per-payload drop/mismatch
//! probability table. Over a Gilbert–Elliott channel it is computed
//! *exactly from this very simulation's per-attempt probabilities*
//! ([`DropProfile::exact`]); [`DropProfile::calibrate`] estimates it by
//! running the simulation and serves as the oracle. The campaign layer
//! samples cycle outcomes from the profile; `repro_fig3a` demonstrates
//! the two agree.

use crate::channel::{ChannelModel, ChannelState, GilbertElliott};
use crate::crc;
use crate::fec;
use crate::hop::HopSequence;
use crate::packet::{PacketType, HEADER_BITS};
use btpan_sim::prelude::*;

mod metrics {
    use crate::packet::PacketType;
    use btpan_obs::{Counter, Registry};
    use std::sync::OnceLock;

    /// Per-packet-type counter families, indexed by [`PacketType::index`].
    /// Updates are flushed once per [`super::AclLink::send_payloads`] call
    /// (not per attempt) so the disabled path stays off the per-slot hot
    /// loop entirely.
    pub(super) struct LinkMetrics {
        pub attempts: [Counter; 6],
        pub retransmits: [Counter; 6],
        pub crc_failures: [Counter; 6],
        pub header_losses: [Counter; 6],
        pub delivered: [Counter; 6],
        pub dropped: [Counter; 6],
        pub undetected: [Counter; 6],
        pub slots: [Counter; 6],
    }

    fn family(registry: &Registry, name: &str) -> [Counter; 6] {
        PacketType::ALL.map(|pt| registry.counter_with(name, &[("type", pt.label())]))
    }

    pub(super) fn handles() -> &'static LinkMetrics {
        static HANDLES: OnceLock<LinkMetrics> = OnceLock::new();
        HANDLES.get_or_init(|| {
            let registry = Registry::global();
            LinkMetrics {
                attempts: family(registry, "btpan_baseband_attempts_total"),
                retransmits: family(registry, "btpan_baseband_retransmits_total"),
                crc_failures: family(registry, "btpan_baseband_crc_failures_total"),
                header_losses: family(registry, "btpan_baseband_header_losses_total"),
                delivered: family(registry, "btpan_baseband_payloads_delivered_total"),
                dropped: family(registry, "btpan_baseband_payloads_dropped_total"),
                undetected: family(registry, "btpan_baseband_undetected_total"),
                slots: family(registry, "btpan_baseband_slots_used_total"),
            }
        })
    }
}

/// Configuration of an ACL link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Baseband packet type in use.
    pub packet_type: PacketType,
    /// Attempts per payload before the payload is flushed (dropped).
    pub retry_limit: u32,
    /// Fraction of piconet slots granted to this link (1.0 = sole
    /// active slave). Lower shares space attempts further apart in time.
    pub slot_share: f64,
}

impl LinkConfig {
    /// A link using `packet_type` with the spec-typical flush limit.
    pub fn new(packet_type: PacketType) -> Self {
        LinkConfig {
            packet_type,
            retry_limit: 8,
            slot_share: 1.0,
        }
    }

    /// Sets the retry (flush) limit.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn retry_limit(mut self, limit: u32) -> Self {
        assert!(limit > 0, "retry limit must be positive");
        self.retry_limit = limit;
        self
    }

    /// Sets the slot share.
    ///
    /// # Panics
    ///
    /// Panics unless `share` is in `(0, 1]`.
    pub fn slot_share(mut self, share: f64) -> Self {
        assert!(share > 0.0 && share <= 1.0, "slot share in (0,1]");
        self.slot_share = share;
        self
    }

    /// Slots consumed per attempt including the return slot and the
    /// waiting slots implied by the slot share.
    pub fn slots_per_attempt(&self) -> u64 {
        let air = self.packet_type.slots() + 1;
        ((air as f64) / self.slot_share).ceil() as u64
    }
}

/// Outcome of one transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptResult {
    /// Payload delivered and ACK received.
    Delivered,
    /// Header (or access code) lost; receiver saw nothing.
    HeaderLost,
    /// Payload corrupted and caught by FEC/CRC; NAK sent.
    PayloadCorrupted,
    /// Payload corrupted but the corruption escaped the CRC; the
    /// receiver ACKs a wrong payload.
    UndetectedCorruption,
    /// Payload delivered but the ACK was lost; sender retransmits, the
    /// receiver's SEQN check deduplicates.
    AckLost,
}

/// Outcome of transferring a sequence of payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransferOutcome {
    /// Payloads the caller asked to move.
    pub payloads_requested: u64,
    /// Payloads delivered intact.
    pub payloads_delivered: u64,
    /// Index of the first payload whose retries were exhausted
    /// (the transfer aborts there), if any.
    pub dropped_at: Option<u64>,
    /// Payloads delivered with corruption that escaped the CRC.
    pub undetected: u64,
    /// Total transmission attempts.
    pub attempts: u64,
    /// Total slots consumed (including waiting slots from slot share).
    pub slots_used: u64,
}

impl TransferOutcome {
    /// True if every payload arrived intact.
    pub fn is_clean(&self) -> bool {
        self.dropped_at.is_none() && self.undetected == 0
    }
}

/// Longest ACL packet in slots (DM5/DH5).
const MAX_PACKET_SLOTS: usize = 5;

/// Probability that an 18-bit repetition-coded header (or ACK) sent in
/// a slot of bit-error rate `ber` decodes.
fn p_header_ok(ber: f64) -> f64 {
    let bit_err = fec::repetition_error_probability(ber);
    (1.0 - bit_err).powi(HEADER_BITS as i32)
}

/// Probability that a full-size `pt` payload, its bits spread evenly
/// over slots of bit-error rates `slot_bers`, decodes intact: per
/// (15,10) Hamming codeword for `DMx`, per bit for `DHx`.
fn p_payload_ok(pt: PacketType, slot_bers: &[f64]) -> f64 {
    let bits_per_slot = pt.payload_bits_on_air() as f64 / slot_bers.len() as f64;
    let mut p = 1.0;
    for &ber in slot_bers {
        if pt.fec_coded() {
            let codewords = bits_per_slot / fec::CODE_BITS as f64;
            p *= fec::hamming_block_success_probability(ber).powf(codewords);
        } else {
            p *= (1.0 - ber).powf(bits_per_slot);
        }
    }
    p
}

/// Probability that a corrupted payload escapes the CRC. Burst state
/// means long error runs (> 17 bits); good-state residual errors are
/// short and always caught.
fn p_crc_escape(saw_bad_state: bool) -> f64 {
    crc::undetected_probability(if saw_bad_state { 64 } else { 8 })
}

/// An ACL link between a master and one slave.
#[derive(Debug)]
pub struct AclLink<C> {
    cfg: LinkConfig,
    channel: C,
    hop: HopSequence,
    slot_cursor: u64,
    /// Scratch buffers reused across [`Self::transmit_bytes_once`] calls
    /// so the real-codec path allocates nothing in steady state.
    scratch_body: Vec<u8>,
    scratch_words: Vec<u16>,
    scratch_decoded: Vec<u8>,
}

impl<C: ChannelModel> AclLink<C> {
    /// Creates a link over `channel` within the piconet hopping on
    /// `hop`.
    pub fn new(cfg: LinkConfig, channel: C, hop: HopSequence) -> Self {
        AclLink {
            cfg,
            channel,
            hop,
            slot_cursor: 0,
            scratch_body: Vec::new(),
            scratch_words: Vec::new(),
            scratch_decoded: Vec::new(),
        }
    }

    /// Current link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Mutable access, e.g. to change packet type between cycles.
    pub fn config_mut(&mut self) -> &mut LinkConfig {
        &mut self.cfg
    }

    /// The channel model the link transmits over.
    pub fn channel(&self) -> &C {
        &self.channel
    }

    /// Absolute slot index the link has advanced to.
    pub fn slot_cursor(&self) -> u64 {
        self.slot_cursor
    }

    /// Advances the channel through `n` idle slots (no transmission) in
    /// O(dwell transitions) per span via
    /// [`ChannelModel::advance_idle`] — the "do no work for quiet time"
    /// fast path. Exactly bit-identical to [`Self::idle_slots_reference`]
    /// for channels whose idle evolution consumes no randomness or
    /// draws only at dwell boundaries; distribution-exact for
    /// burst-state channels (see the trait docs).
    pub fn idle_slots(&mut self, n: u64, rng: &mut SimRng) {
        self.channel.advance_idle(self.slot_cursor, n, rng);
        self.slot_cursor += n;
    }

    /// The original slot-by-slot idle walk, retained as the reference
    /// implementation for equivalence tests and `repro_bench`.
    pub fn idle_slots_reference(&mut self, n: u64, rng: &mut SimRng) {
        for _ in 0..n {
            let ch = self.hop.channel(self.slot_cursor);
            let _ = self.channel.slot_ber(self.slot_cursor, ch, rng);
            self.slot_cursor += 1;
        }
    }

    /// Simulates one transmission attempt of a full-size payload.
    pub fn attempt(&mut self, rng: &mut SimRng) -> AttemptResult {
        let pt = self.cfg.packet_type;
        let ch = self.hop.channel(self.slot_cursor);
        let n_slots = pt.slots();

        // Gather per-slot BERs over the packet's slots (same RF channel —
        // multi-slot packets do not re-hop). Longest packet is 5 slots,
        // so a stack array replaces the per-attempt heap allocation; the
        // RNG draw order is unchanged.
        debug_assert!(n_slots as usize <= MAX_PACKET_SLOTS);
        let mut slot_bers = [0.0f64; MAX_PACKET_SLOTS];
        let slot_bers = &mut slot_bers[..n_slots as usize];
        let mut saw_bad_state = false;
        for (i, ber) in slot_bers.iter_mut().enumerate() {
            if self.channel.state() == ChannelState::Bad {
                saw_bad_state = true;
            }
            *ber = self.channel.slot_ber(self.slot_cursor + i as u64, ch, rng);
        }

        // Header: first slot, repetition-coded, 18 bits.
        let p_header = p_header_ok(slot_bers[0]);
        let p_payload = p_payload_ok(pt, slot_bers);

        // Return (ACK) slot.
        let ack_ch = self.hop.channel(self.slot_cursor + n_slots);
        if self.channel.state() == ChannelState::Bad {
            saw_bad_state = true;
        }
        let ack_ber = self
            .channel
            .slot_ber(self.slot_cursor + n_slots, ack_ch, rng);
        let p_ack_ok = p_header_ok(ack_ber);

        // Waiting slots implied by slot share also advance the channel.
        let total = self.cfg.slots_per_attempt();
        self.slot_cursor += n_slots + 1;
        if total > n_slots + 1 {
            self.idle_slots(total - (n_slots + 1), rng);
        }

        if !rng.chance(p_header) {
            return AttemptResult::HeaderLost;
        }
        if !rng.chance(p_payload) {
            if rng.chance(p_crc_escape(saw_bad_state)) {
                return AttemptResult::UndetectedCorruption;
            }
            return AttemptResult::PayloadCorrupted;
        }
        if !rng.chance(p_ack_ok) {
            return AttemptResult::AckLost;
        }
        AttemptResult::Delivered
    }

    /// Transfers `payloads` full-size payloads, aborting at the first
    /// payload whose retry budget is exhausted.
    pub fn send_payloads(&mut self, payloads: u64, rng: &mut SimRng) -> TransferOutcome {
        let start_slot = self.slot_cursor;
        let mut out = TransferOutcome {
            payloads_requested: payloads,
            ..TransferOutcome::default()
        };
        let mut crc_failures = 0u64;
        let mut header_losses = 0u64;
        'payloads: for index in 0..payloads {
            let mut delivered = false;
            for _try in 0..self.cfg.retry_limit {
                out.attempts += 1;
                match self.attempt(rng) {
                    AttemptResult::Delivered => {
                        delivered = true;
                        break;
                    }
                    AttemptResult::AckLost => {
                        // Receiver has it; sender retransmits once more,
                        // receiver dedups. Treat as delivered after the
                        // redundant attempt (SEQN match).
                        delivered = true;
                        break;
                    }
                    AttemptResult::UndetectedCorruption => {
                        out.undetected += 1;
                        delivered = true;
                        break;
                    }
                    AttemptResult::HeaderLost => header_losses += 1,
                    AttemptResult::PayloadCorrupted => crc_failures += 1,
                }
            }
            if delivered {
                out.payloads_delivered += 1;
            } else {
                out.dropped_at = Some(index);
                break 'payloads;
            }
        }
        out.slots_used = self.slot_cursor - start_slot;
        let obs = metrics::handles();
        let idx = self.cfg.packet_type.index();
        let payloads_started = out.payloads_delivered + u64::from(out.dropped_at.is_some());
        obs.attempts[idx].add(out.attempts);
        obs.retransmits[idx].add(out.attempts - payloads_started);
        obs.crc_failures[idx].add(crc_failures);
        obs.header_losses[idx].add(header_losses);
        obs.delivered[idx].add(out.payloads_delivered);
        obs.dropped[idx].add(u64::from(out.dropped_at.is_some()));
        obs.undetected[idx].add(out.undetected);
        obs.slots[idx].add(out.slots_used);
        out
    }

    /// Transmits real bytes through the real codecs once (no ARQ):
    /// encodes with FEC/CRC as the packet type dictates, flips bits per
    /// the sampled slot BER, and decodes. Used by tests to validate the
    /// probabilistic fast path against the actual bit machinery.
    pub fn transmit_bytes_once(&mut self, payload: &[u8], rng: &mut SimRng) -> Option<Vec<u8>> {
        let pt = self.cfg.packet_type;
        assert!(
            payload.len() <= pt.max_payload_bytes() as usize,
            "payload exceeds packet capacity"
        );
        let ch = self.hop.channel(self.slot_cursor);
        crc::append_crc_into(payload, &mut self.scratch_body);
        let n_slots = pt.slots();
        debug_assert!(n_slots as usize <= MAX_PACKET_SLOTS);
        let mut bers = [0.0f64; MAX_PACKET_SLOTS];
        for (i, ber) in bers[..n_slots as usize].iter_mut().enumerate() {
            *ber = self.channel.slot_ber(self.slot_cursor + i as u64, ch, rng);
        }
        self.slot_cursor += n_slots + 1;
        let ber_avg = bers[..n_slots as usize].iter().sum::<f64>() / n_slots as f64;

        let received: &[u8] = if pt.fec_coded() {
            fec::encode_bytes_into(&self.scratch_body, &mut self.scratch_words);
            for w in self.scratch_words.iter_mut() {
                for bit in 0..fec::CODE_BITS {
                    if rng.chance(ber_avg) {
                        *w ^= 1 << bit;
                    }
                }
            }
            let body_len = self.scratch_body.len();
            if !fec::decode_bytes_into(&self.scratch_words, body_len, &mut self.scratch_decoded) {
                return None;
            }
            &self.scratch_decoded
        } else {
            // Corrupt the scratch body in place — no working copy needed.
            for byte in self.scratch_body.iter_mut() {
                for bit in 0..8 {
                    if rng.chance(ber_avg) {
                        *byte ^= 1 << bit;
                    }
                }
            }
            &self.scratch_body
        };
        crc::check_crc(received).map(<[u8]>::to_vec)
    }
}

/// Calibrated per-payload outcome probabilities for fast cycle sampling.
///
/// Computed exactly for a Gilbert–Elliott channel
/// ([`DropProfile::exact`]) or estimated by Monte-Carlo over the
/// slot-fidelity link ([`DropProfile::calibrate`]); the campaign layer
/// then samples a cycle's transfer outcome as a geometric/binomial draw
/// instead of simulating billions of slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropProfile {
    /// Packet type the profile describes.
    pub packet_type: PacketType,
    /// Probability a payload is dropped (retries exhausted).
    pub p_drop: f64,
    /// Probability a payload is delivered corrupt (CRC escape).
    pub p_undetected: f64,
    /// Mean attempts per delivered payload.
    pub mean_attempts: f64,
    /// Mean slots consumed per payload.
    pub mean_slots: f64,
}

impl DropProfile {
    /// Estimates a profile by pushing `n_payloads` through a
    /// slot-fidelity link: the Monte-Carlo oracle for
    /// [`DropProfile::exact`], and the only calibration for channels
    /// without a closed form.
    pub fn calibrate<C: ChannelModel>(
        cfg: LinkConfig,
        channel: C,
        hop: HopSequence,
        n_payloads: u64,
        rng: &mut SimRng,
    ) -> Self {
        let mut link = AclLink::new(cfg, channel, hop);
        let mut dropped = 0u64;
        let mut undetected = 0u64;
        let mut attempts = 0u64;
        let start = link.slot_cursor();
        let mut sent = 0u64;
        while sent < n_payloads {
            // Send in bursts of 64 to amortize; aborts mid-burst on drop.
            let burst = 64.min(n_payloads - sent);
            let out = link.send_payloads(burst, rng);
            attempts += out.attempts;
            undetected += out.undetected;
            if out.dropped_at.is_some() {
                dropped += 1;
                sent += out.payloads_delivered + 1;
            } else {
                sent += out.payloads_delivered;
            }
        }
        let slots = link.slot_cursor() - start;
        DropProfile {
            packet_type: cfg.packet_type,
            p_drop: dropped as f64 / sent as f64,
            p_undetected: undetected as f64 / sent as f64,
            mean_attempts: attempts as f64 / sent as f64,
            mean_slots: slots as f64 / sent as f64,
        }
    }

    /// The long-run profile of `cfg` over `channel`, computed exactly.
    ///
    /// [`AclLink::attempt`] draws the burst state once per slot and
    /// holds the BER constant within it, so one attempt is a finite sum
    /// over the ≤ 2⁶ state paths through its data slots and ACK slot;
    /// each path's header, payload and CRC-escape probabilities are the
    /// ones `attempt` computes. Per start state this gives 2×2 attempt
    /// matrices (retry, deliver, deliver corrupt; indexed
    /// `[start][end]`), idle slot-share slots advance the end state, and
    /// folding `retry_limit` attempts yields the chain of burst states at
    /// payload boundaries. Its stationary distribution weights the
    /// per-start-state outcomes — the quantity [`DropProfile::calibrate`]
    /// estimates, without the Monte-Carlo noise. The channel's current
    /// state is irrelevant; the hop sequence never affects a
    /// Gilbert–Elliott channel.
    pub fn exact(cfg: LinkConfig, channel: &GilbertElliott) -> Self {
        type M = [[f64; 2]; 2];
        fn mul(a: &M, b: &M) -> M {
            let mut c = [[0.0; 2]; 2];
            for i in 0..2 {
                for j in 0..2 {
                    c[i][j] = a[i][0] * b[0][j] + a[i][1] * b[1][j];
                }
            }
            c
        }
        fn add(a: &M, b: &M) -> M {
            [
                [a[0][0] + b[0][0], a[0][1] + b[0][1]],
                [a[1][0] + b[1][0], a[1][1] + b[1][1]],
            ]
        }
        fn row_sums(a: &M) -> [f64; 2] {
            [a[0][0] + a[0][1], a[1][0] + a[1][1]]
        }
        const STATES: [ChannelState; 2] = [ChannelState::Good, ChannelState::Bad];
        const IDENTITY: M = [[1.0, 0.0], [0.0, 1.0]];

        let pt = cfg.packet_type;
        let n = pt.slots() as usize;
        debug_assert!(n <= MAX_PACKET_SLOTS);
        let ber = STATES.map(|s| channel.state_ber(s));
        let p_gb = channel.flip_probability(ChannelState::Good);
        let p_bg = channel.flip_probability(ChannelState::Bad);
        let step: M = [[1.0 - p_gb, p_gb], [p_bg, 1.0 - p_bg]];

        // One attempt: states[0] is the start state, states[1..=n] the
        // states of the remaining data slots and the ACK slot, and
        // states[n + 1] the state after the ACK slot.
        let mut retry: M = [[0.0; 2]; 2];
        let mut deliver: M = [[0.0; 2]; 2];
        let mut corrupt: M = [[0.0; 2]; 2];
        let mut states = [0usize; MAX_PACKET_SLOTS + 2];
        for start in 0..2 {
            states[0] = start;
            for path in 0..1usize << (n + 1) {
                let mut p_path = 1.0;
                for i in 1..=n + 1 {
                    states[i] = (path >> (i - 1)) & 1;
                    p_path *= step[states[i - 1]][states[i]];
                }
                if p_path == 0.0 {
                    continue;
                }
                let mut slot_bers = [0.0f64; MAX_PACKET_SLOTS];
                for (b, &s) in slot_bers.iter_mut().zip(&states[..n]) {
                    *b = ber[s];
                }
                let saw_bad_state = states[..=n].contains(&1);
                let p_header = p_header_ok(slot_bers[0]);
                let p_payload = p_payload_ok(pt, &slot_bers[..n]);
                let p_escape = p_crc_escape(saw_bad_state);
                // The outcomes `send_payloads` retries on: header lost, or
                // payload corrupted and caught by the CRC. A lost ACK still
                // ends the payload delivered.
                let p_corrupt = p_header * (1.0 - p_payload);
                let end = states[n + 1];
                retry[start][end] += p_path * ((1.0 - p_header) + p_corrupt * (1.0 - p_escape));
                deliver[start][end] += p_path * p_header * p_payload;
                corrupt[start][end] += p_path * p_corrupt * p_escape;
            }
        }

        // Waiting slots implied by the slot share advance the end state.
        let idle = cfg.slots_per_attempt() - (n as u64 + 1);
        if idle > 0 {
            let mut wait = IDENTITY;
            for _ in 0..idle {
                wait = mul(&wait, &step);
            }
            retry = mul(&retry, &wait);
            deliver = mul(&deliver, &wait);
            corrupt = mul(&corrupt, &wait);
        }

        // Fold the retries: the k-th attempt happens from the state
        // distribution `retry^(k-1)` left after k − 1 failures.
        let ends = add(&deliver, &corrupt);
        let mut failed_k = IDENTITY;
        let mut boundary: M = [[0.0; 2]; 2];
        let mut corrupt_from = [0.0; 2];
        let mut attempts_from = [0.0; 2];
        for _ in 0..cfg.retry_limit {
            let reached = row_sums(&failed_k);
            let c = row_sums(&mul(&failed_k, &corrupt));
            for s in 0..2 {
                attempts_from[s] += reached[s];
                corrupt_from[s] += c[s];
            }
            boundary = add(&boundary, &mul(&failed_k, &ends));
            failed_k = mul(&failed_k, &retry);
        }
        let drop_from = row_sums(&failed_k);
        boundary = add(&boundary, &failed_k);

        // Stationary distribution of the payload-boundary chain; a
        // chain that never changes state keeps the fresh channel's
        // good start.
        let flow = boundary[0][1] + boundary[1][0];
        let pi_bad = if flow > 0.0 {
            boundary[0][1] / flow
        } else {
            0.0
        };
        let pi = [1.0 - pi_bad, pi_bad];
        let weigh = |v: [f64; 2]| pi[0] * v[0] + pi[1] * v[1];
        let mean_attempts = weigh(attempts_from);
        DropProfile {
            packet_type: pt,
            p_drop: weigh(drop_from),
            p_undetected: weigh(corrupt_from),
            mean_attempts,
            mean_slots: mean_attempts * cfg.slots_per_attempt() as f64,
        }
    }

    /// Probability that a transfer of `payloads` payloads completes with
    /// no drop.
    pub fn p_transfer_clean(&self, payloads: u64) -> f64 {
        (1.0 - self.p_drop).powf(payloads as f64)
    }

    /// Samples the index of the first dropped payload in a transfer of
    /// `payloads`, or `None` if the transfer survives.
    pub fn sample_first_drop(&self, payloads: u64, rng: &mut SimRng) -> Option<u64> {
        if self.p_drop <= 0.0 {
            return None;
        }
        // Geometric draw of payloads-before-first-drop.
        let g = Geometric::new(self.p_drop).expect("p_drop in (0,1]");
        let first = g.sample(rng);
        (first < payloads).then_some(first)
    }

    /// Samples how many of `payloads` delivered payloads carry
    /// undetected corruption.
    pub fn sample_undetected(&self, payloads: u64, rng: &mut SimRng) -> u64 {
        if self.p_undetected <= 0.0 || payloads == 0 {
            return 0;
        }
        // Thin payloads with small p: Poisson-like, sample as binomial
        // via repeated Bernoulli only when expected count is small.
        let expected = self.p_undetected * payloads as f64;
        if expected < 30.0 {
            let mut hits = 0;
            // Geometric skipping for efficiency.
            let g = Geometric::new(self.p_undetected).expect("p in (0,1]");
            let mut pos = 0u64;
            loop {
                let skip = g.sample(rng);
                pos = pos.saturating_add(skip).saturating_add(1);
                if pos > payloads {
                    break;
                }
                hits += 1;
            }
            hits
        } else {
            // Normal approximation for large counts.
            let var = expected * (1.0 - self.p_undetected);
            let u1 = rng.uniform01().max(f64::MIN_POSITIVE);
            let u2 = rng.uniform01();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            (expected + z * var.sqrt()).round().max(0.0) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{GilbertElliott, MemorylessChannel};

    fn rng() -> SimRng {
        SimRng::seed_from(0xACE)
    }

    fn quiet_link(pt: PacketType) -> AclLink<MemorylessChannel> {
        AclLink::new(
            LinkConfig::new(pt),
            MemorylessChannel::new(0.0),
            HopSequence::new(1),
        )
    }

    #[test]
    fn clean_channel_delivers_everything() {
        let mut link = quiet_link(PacketType::Dh5);
        let out = link.send_payloads(100, &mut rng());
        assert_eq!(out.payloads_delivered, 100);
        assert!(out.is_clean());
        assert_eq!(out.attempts, 100);
        // 6 slots per attempt for DH5.
        assert_eq!(out.slots_used, 600);
    }

    #[test]
    fn hostile_channel_drops() {
        let mut link = AclLink::new(
            LinkConfig::new(PacketType::Dh5).retry_limit(3),
            MemorylessChannel::new(0.05),
            HopSequence::new(1),
        );
        let out = link.send_payloads(50, &mut rng());
        assert!(out.dropped_at.is_some());
        assert!(out.payloads_delivered < 50);
    }

    #[test]
    fn fec_helps_at_moderate_ber() {
        // At BER where DH fails, DM1's FEC should still deliver a
        // substantially larger per-attempt success rate.
        let mut r = rng();
        let n = 3000;
        let count = |pt: PacketType, r: &mut SimRng| {
            let mut link = AclLink::new(
                LinkConfig::new(pt).retry_limit(1),
                MemorylessChannel::new(2e-3),
                HopSequence::new(1),
            );
            (0..n)
                .filter(|_| matches!(link.attempt(r), AttemptResult::Delivered))
                .count()
        };
        let dm1 = count(PacketType::Dm1, &mut r);
        let dh1 = count(PacketType::Dh1, &mut r);
        assert!(
            dm1 > dh1 + n / 20,
            "FEC not helping: DM1 {dm1} vs DH1 {dh1}"
        );
    }

    #[test]
    fn slot_share_spaces_attempts() {
        let cfg = LinkConfig::new(PacketType::Dh1).slot_share(0.25);
        assert_eq!(cfg.slots_per_attempt(), 8);
        let mut link = AclLink::new(cfg, MemorylessChannel::new(0.0), HopSequence::new(1));
        let out = link.send_payloads(10, &mut rng());
        assert_eq!(out.slots_used, 80);
    }

    #[test]
    fn burst_channel_drops_more_single_slot_payloads_per_byte() {
        // Core Fig. 3a mechanism: for the same byte volume, 1-slot
        // packets give more payloads and retries bunch inside bursts.
        let mut r = rng();
        let bytes: u64 = 1691 * 400;
        let drop_fraction = |pt: PacketType, r: &mut SimRng| {
            let ge = GilbertElliott::new(2e-4, 0.02, 1e-6, 0.08);
            let mut link =
                AclLink::new(LinkConfig::new(pt).retry_limit(4), ge, HopSequence::new(3));
            let payloads = pt.packets_for(bytes);
            let mut dropped = 0u64;
            let mut sent = 0u64;
            while sent < payloads {
                let out = link.send_payloads(payloads - sent, r);
                sent += out.payloads_delivered;
                if out.dropped_at.is_some() {
                    dropped += 1;
                    sent += 1;
                }
            }
            dropped as f64 / payloads as f64
        };
        let dh1 = drop_fraction(PacketType::Dh1, &mut r);
        let dh5 = drop_fraction(PacketType::Dh5, &mut r);
        // Per payload the 1-slot type should drop at least as often; per
        // byte it is strictly worse because it needs ~5x the payloads.
        let per_byte_dh1 = dh1 * PacketType::Dh1.packets_for(bytes) as f64;
        let per_byte_dh5 = dh5 * PacketType::Dh5.packets_for(bytes) as f64;
        assert!(
            per_byte_dh1 > per_byte_dh5,
            "DH1 {per_byte_dh1} vs DH5 {per_byte_dh5}"
        );
    }

    #[test]
    fn real_bytes_round_trip_clean() {
        let mut link = quiet_link(PacketType::Dm1);
        let out = link.transmit_bytes_once(b"hello", &mut rng());
        assert_eq!(out.unwrap(), b"hello");
    }

    #[test]
    fn real_bytes_detect_corruption() {
        let mut link = AclLink::new(
            LinkConfig::new(PacketType::Dh1),
            MemorylessChannel::new(0.08),
            HopSequence::new(1),
        );
        let mut r = rng();
        let lost = (0..200)
            .filter(|_| {
                link.transmit_bytes_once(b"corruptible payload", &mut r)
                    .is_none()
            })
            .count();
        assert!(lost > 100, "only {lost} corrupted at BER 0.08");
    }

    #[test]
    #[should_panic(expected = "exceeds packet capacity")]
    fn oversized_payload_panics() {
        let mut link = quiet_link(PacketType::Dm1);
        let _ = link.transmit_bytes_once(&[0u8; 18], &mut rng());
    }

    #[test]
    fn drop_profile_calibration_sane() {
        let mut r = rng();
        let prof = DropProfile::calibrate(
            LinkConfig::new(PacketType::Dh1).retry_limit(4),
            GilbertElliott::new(5e-4, 0.02, 1e-6, 0.08),
            HopSequence::new(5),
            30_000,
            &mut r,
        );
        assert!(prof.p_drop > 0.0 && prof.p_drop < 0.2, "{prof:?}");
        assert!(prof.mean_attempts >= 1.0);
        assert!(prof.mean_slots >= 2.0);
        // Fast path consistency: clean-transfer probability decreases
        // with transfer length.
        assert!(prof.p_transfer_clean(10) > prof.p_transfer_clean(1000));
    }

    #[test]
    fn drop_profile_sampling_consistent() {
        let prof = DropProfile {
            packet_type: PacketType::Dh1,
            p_drop: 0.01,
            p_undetected: 0.001,
            mean_attempts: 1.1,
            mean_slots: 2.4,
        };
        let mut r = rng();
        let n = 20_000;
        let drops = (0..n)
            .filter(|_| prof.sample_first_drop(100, &mut r).is_some())
            .count();
        let expect = 1.0 - prof.p_transfer_clean(100); // ~0.634
        let freq = drops as f64 / n as f64;
        assert!((freq - expect).abs() < 0.02, "freq {freq} expect {expect}");
        // Undetected counts have roughly the right mean.
        let total: u64 = (0..n).map(|_| prof.sample_undetected(100, &mut r)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 0.1).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn zero_drop_profile_never_drops() {
        let prof = DropProfile {
            packet_type: PacketType::Dh5,
            p_drop: 0.0,
            p_undetected: 0.0,
            mean_attempts: 1.0,
            mean_slots: 6.0,
        };
        let mut r = rng();
        assert_eq!(prof.sample_first_drop(1_000_000, &mut r), None);
        assert_eq!(prof.sample_undetected(1_000_000, &mut r), 0);
        assert_eq!(prof.p_transfer_clean(1_000_000), 1.0);
    }

    #[test]
    fn idle_slots_advance_cursor() {
        let mut link = quiet_link(PacketType::Dh1);
        link.idle_slots(10, &mut rng());
        assert_eq!(link.slot_cursor(), 10);
    }

    #[test]
    fn fast_idle_bit_identical_to_reference_for_rng_free_channel() {
        // Memoryless channels draw nothing while idle, so the skip is
        // exactly the reference walk: same cursor, same RNG state, and
        // therefore identical subsequent transfers.
        let mut fast = AclLink::new(
            LinkConfig::new(PacketType::Dh3),
            MemorylessChannel::new(1e-3),
            HopSequence::new(77),
        );
        let mut slow = AclLink::new(
            LinkConfig::new(PacketType::Dh3),
            MemorylessChannel::new(1e-3),
            HopSequence::new(77),
        );
        let mut rf = rng();
        let mut rs = rng();
        for span in [1u64, 999, 1_000_000] {
            fast.idle_slots(span, &mut rf);
            slow.idle_slots_reference(span, &mut rs);
            assert_eq!(fast.slot_cursor(), slow.slot_cursor());
            let a = fast.send_payloads(20, &mut rf);
            let b = slow.send_payloads(20, &mut rs);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn fast_idle_bit_identical_to_reference_for_interferer() {
        use crate::channel::Interferer;
        let mk = || {
            AclLink::new(
                LinkConfig::new(PacketType::Dh1),
                Interferer::wifi(39),
                HopSequence::new(0xBEEF),
            )
        };
        let mut fast = mk();
        let mut slow = mk();
        let mut rf = rng();
        let mut rs = rng();
        for span in [3u64, 50_000, 1_000_000] {
            fast.idle_slots(span, &mut rf);
            slow.idle_slots_reference(span, &mut rs);
            let a = fast.send_payloads(50, &mut rf);
            let b = slow.send_payloads(50, &mut rs);
            assert_eq!(a, b, "diverged after idle span {span}");
        }
    }

    #[test]
    fn fast_idle_with_burst_channel_keeps_transfer_statistics() {
        // GE idle skipping is distribution-exact, not stream-identical:
        // aggregate drop behavior over many idle/transfer rounds must
        // match the reference walk within sampling noise.
        let run = |fast: bool| {
            let mut link = AclLink::new(
                LinkConfig::new(PacketType::Dh1).retry_limit(2),
                GilbertElliott::new(2e-3, 0.02, 1e-6, 0.2),
                HopSequence::new(9),
            );
            let mut r = rng();
            let mut delivered = 0u64;
            let mut attempts = 0u64;
            for _ in 0..400 {
                if fast {
                    link.idle_slots(5_000, &mut r);
                } else {
                    link.idle_slots_reference(5_000, &mut r);
                }
                let out = link.send_payloads(40, &mut r);
                delivered += out.payloads_delivered;
                attempts += out.attempts;
            }
            (delivered, attempts)
        };
        let (df, af) = run(true);
        let (ds, as_) = run(false);
        let rate_f = df as f64 / af as f64;
        let rate_s = ds as f64 / as_ as f64;
        assert!(
            (rate_f - rate_s).abs() < 0.02,
            "delivery-per-attempt diverged: fast {rate_f} vs reference {rate_s}"
        );
    }

    #[test]
    fn exact_profile_without_bursts_is_a_geometric_flush() {
        // A channel that never leaves the good state makes attempts
        // i.i.d.: the payload is dropped iff all `retry_limit` attempts
        // fail, and the CRC never lets a short error run through.
        let ber = 2e-3;
        for pt in PacketType::ALL {
            let cfg = LinkConfig::new(pt).retry_limit(3);
            let prof = DropProfile::exact(cfg, &GilbertElliott::new(0.0, 0.5, ber, 0.3));
            let bers = vec![ber; pt.slots() as usize];
            let fail = 1.0 - p_header_ok(ber) * p_payload_ok(pt, &bers);
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs().max(1e-300);
            assert!(close(prof.p_drop, fail.powi(3)), "{pt}: {prof:?}");
            assert!(close(prof.mean_attempts, 1.0 + fail + fail * fail), "{pt}");
            assert_eq!(prof.p_undetected, 0.0, "{pt}");
            assert_eq!(
                prof.mean_slots,
                prof.mean_attempts * cfg.slots_per_attempt() as f64
            );
        }
    }

    #[test]
    fn exact_profile_grows_with_burst_frequency_and_shrinks_with_retries() {
        let ge = |p_gb: f64| GilbertElliott::new(p_gb, 0.08, 5e-6, 0.12);
        for pt in PacketType::ALL {
            let cfg = LinkConfig::new(pt).retry_limit(4);
            let rare = DropProfile::exact(cfg, &ge(1e-3));
            let often = DropProfile::exact(cfg, &ge(1e-2));
            let patient = DropProfile::exact(cfg.retry_limit(8), &ge(1e-2));
            assert!(0.0 < rare.p_drop && rare.p_drop < often.p_drop, "{pt}");
            assert!(patient.p_drop < often.p_drop, "{pt}");
            assert!(often.p_undetected > 0.0 && often.p_undetected < often.p_drop);
            assert!(often.mean_attempts >= 1.0 && often.mean_attempts <= 4.0);
        }
    }
}
