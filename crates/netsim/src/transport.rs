//! A miniature reliable, in-order message transport.
//!
//! Just enough TCP to carry the collector's rsync traffic across a lossy
//! switch fabric: message-oriented segments with 64-bit sequence numbers, a
//! fixed sliding window, cumulative ACKs, and timer-driven retransmission.
//! The state machine is polled (`poll`/`on_frame`), never callback-driven,
//! so it composes with the deterministic event loop.
//!
//! Retransmission timing is adaptive (RFC 6298): the endpoint keeps a
//! smoothed RTT and RTT variance from ACKed segments, derives
//! `RTO = SRTT + max(G, 4·RTTVAR)`, doubles the RTO on every timeout
//! (exponential backoff), and — per Karn's algorithm — never samples RTT
//! from a segment that was retransmitted. A segment that exhausts
//! [`Endpoint::max_retries`] declares the peer dead instead of
//! retransmitting forever; see [`Endpoint::peer_dead`].
//!
//! Wire format of a segment (payload of one [`Frame`]):
//!
//! ```text
//! kind(1) seq(8) ack(8) len(4) data(len)      all big-endian
//! kind: 0 = DATA, 1 = ACK
//! ```

use std::collections::{BTreeMap, VecDeque};

use bytes::{BufMut, Bytes, BytesMut};
use frostlab_simkern::time::{SimDuration, SimTime};

use crate::error::NetError;
use crate::frame::{Frame, MacAddr};

const KIND_DATA: u8 = 0;
const KIND_ACK: u8 = 1;
const HEADER_LEN: usize = 21;

/// Maximum unacknowledged messages in flight.
pub const WINDOW: usize = 8;

/// Retransmission timeout before the first RTT sample (the conservative
/// pre-RFC 6298 fixed timer this transport used to run with).
pub const DEFAULT_RTO: SimDuration = SimDuration::secs(10);

/// Clock granularity `G`: the simulation runs on integer seconds.
pub const RTO_GRANULARITY: SimDuration = SimDuration::secs(1);

/// Lower clamp on the adaptive RTO.
pub const MIN_RTO: SimDuration = SimDuration::secs(1);

/// Upper clamp on the adaptive RTO (RFC 6298 permits ≥ 60 s).
pub const MAX_RTO: SimDuration = SimDuration::secs(120);

/// Default retransmissions of one segment before the peer is declared dead.
pub const DEFAULT_MAX_RETRIES: u32 = 8;

/// RFC 6298 retransmission-timeout estimator over integer seconds.
///
/// Uses Jacobson's fixed-point arithmetic: SRTT is kept scaled ×8 and
/// RTTVAR scaled ×4, so the smoothing shifts stay exact in integers.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    /// 8 × smoothed RTT, seconds. `None` until the first sample.
    srtt8: Option<i64>,
    /// 4 × RTT variance, seconds.
    rttvar4: i64,
    rto: SimDuration,
}

impl Default for RttEstimator {
    fn default() -> Self {
        RttEstimator::new()
    }
}

impl RttEstimator {
    /// Estimator in its pre-sample state ([`DEFAULT_RTO`]).
    pub fn new() -> Self {
        RttEstimator {
            srtt8: None,
            rttvar4: 0,
            rto: DEFAULT_RTO,
        }
    }

    /// Fold in one RTT measurement from a never-retransmitted segment.
    /// Recomputing from SRTT/RTTVAR also unwinds any timeout backoff.
    pub fn on_sample(&mut self, rtt: SimDuration) {
        let r = rtt.as_secs().max(0);
        match self.srtt8 {
            None => {
                // First sample: SRTT = R, RTTVAR = R/2.
                self.srtt8 = Some(r * 8);
                self.rttvar4 = r * 2;
            }
            Some(ref mut srtt8) => {
                // SRTT ← 7/8·SRTT + 1/8·R ; RTTVAR ← 3/4·RTTVAR + 1/4·|err|.
                let delta = r - (*srtt8 >> 3);
                *srtt8 += delta;
                self.rttvar4 += delta.abs() - (self.rttvar4 >> 2);
            }
        }
        let srtt = self.srtt8.unwrap_or(0) >> 3;
        let rto = srtt + self.rttvar4.max(RTO_GRANULARITY.as_secs());
        self.rto = SimDuration::secs(rto.clamp(MIN_RTO.as_secs(), MAX_RTO.as_secs()));
    }

    /// Exponential backoff after a retransmission timeout.
    pub fn on_timeout(&mut self) {
        let doubled = (self.rto.as_secs() * 2).min(MAX_RTO.as_secs());
        self.rto = SimDuration::secs(doubled);
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Smoothed RTT, once at least one sample has landed.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt8.map(|s| SimDuration::secs(s >> 3))
    }
}

/// A parsed transport segment header.
struct Segment {
    kind: u8,
    seq: u64,
    ack: u64,
    len: usize,
}

fn parse_segment(p: &[u8]) -> Result<Segment, NetError> {
    if p.len() < HEADER_LEN {
        return Err(NetError::MalformedSegment { len: p.len() });
    }
    // Lengths are checked above, so the conversions cannot fail; still,
    // route through a graceful error instead of unwrapping.
    let field = |range: std::ops::Range<usize>| -> Result<[u8; 8], NetError> {
        p.get(range)
            .and_then(|s| <[u8; 8]>::try_from(s).ok())
            .ok_or(NetError::MalformedSegment { len: p.len() })
    };
    let seq = u64::from_be_bytes(field(1..9)?);
    let ack = u64::from_be_bytes(field(9..17)?);
    let len = p
        .get(17..21)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .map(u32::from_be_bytes)
        .ok_or(NetError::MalformedSegment { len: p.len() })? as usize;
    if p.len() < HEADER_LEN + len {
        return Err(NetError::MalformedSegment { len: p.len() });
    }
    Ok(Segment {
        kind: p[0],
        seq,
        ack,
        len,
    })
}

/// One message awaiting acknowledgement.
#[derive(Debug)]
struct InFlight {
    data: Bytes,
    /// Last (re)transmission time: the Karn-safe RTT sample base.
    sent_at: SimTime,
    /// How many times this segment has been retransmitted.
    retries: u32,
}

/// One endpoint of a point-to-point reliable channel.
#[derive(Debug)]
pub struct Endpoint {
    local: MacAddr,
    remote: MacAddr,
    /// Next sequence number to assign to an outgoing message.
    next_seq: u64,
    /// Messages accepted from the application but not yet sent.
    send_queue: VecDeque<(u64, Bytes)>,
    /// In-flight messages by sequence number.
    in_flight: BTreeMap<u64, InFlight>,
    /// Lowest sequence number not yet acknowledged by the peer.
    send_base: u64,
    /// Next sequence expected from the peer.
    recv_next: u64,
    /// Out-of-order messages held for reassembly.
    recv_buf: BTreeMap<u64, Bytes>,
    /// In-order messages ready for the application.
    delivered: VecDeque<Bytes>,
    /// ACK owed to the peer.
    ack_pending: bool,
    /// Adaptive retransmission timer.
    rtt: RttEstimator,
    /// Retransmission budget per segment before declaring the peer dead.
    pub max_retries: u32,
    /// Set once a segment exhausts its retransmission budget.
    dead: bool,
    /// Total retransmissions (diagnostics).
    pub retransmissions: u64,
    /// Malformed segments discarded (diagnostics).
    pub malformed: u64,
}

impl Endpoint {
    /// New endpoint speaking to `remote`.
    pub fn new(local: MacAddr, remote: MacAddr) -> Self {
        Endpoint {
            local,
            remote,
            next_seq: 0,
            send_queue: VecDeque::new(),
            in_flight: BTreeMap::new(),
            send_base: 0,
            recv_next: 0,
            recv_buf: BTreeMap::new(),
            delivered: VecDeque::new(),
            ack_pending: false,
            rtt: RttEstimator::new(),
            max_retries: DEFAULT_MAX_RETRIES,
            dead: false,
            retransmissions: 0,
            malformed: 0,
        }
    }

    /// Local address.
    pub fn local(&self) -> MacAddr {
        self.local
    }

    /// Queue an application message for reliable delivery.
    pub fn send(&mut self, payload: Bytes) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.send_queue.push_back((seq, payload));
    }

    /// Bytes the application has queued or in flight (back-pressure signal).
    pub fn outstanding(&self) -> usize {
        self.send_queue.len() + self.in_flight.len()
    }

    /// True when everything sent has been acknowledged.
    pub fn idle(&self) -> bool {
        self.outstanding() == 0
    }

    /// True once a segment has been retransmitted [`Endpoint::max_retries`]
    /// times without an ACK: the connection is abandoned and [`poll`]
    /// transmits nothing further.
    ///
    /// [`poll`]: Endpoint::poll
    pub fn peer_dead(&self) -> bool {
        self.dead
    }

    /// The error state, if the connection has been abandoned.
    pub fn error(&self) -> Option<NetError> {
        self.dead.then_some(NetError::PeerDead)
    }

    /// Current retransmission timeout (adaptive; starts at [`DEFAULT_RTO`]).
    pub fn rto(&self) -> SimDuration {
        self.rtt.rto()
    }

    /// The RTT estimator (diagnostics).
    pub fn rtt_estimator(&self) -> &RttEstimator {
        &self.rtt
    }

    fn encode(&self, kind: u8, seq: u64, ack: u64, data: &Bytes) -> Frame {
        let mut b = BytesMut::with_capacity(HEADER_LEN + data.len());
        b.put_u8(kind);
        b.put_u64(seq);
        b.put_u64(ack);
        b.put_u32(data.len() as u32);
        b.extend_from_slice(data);
        Frame::new(self.local, self.remote, b.freeze())
    }

    /// Produce the frames to transmit at time `now`: window fills,
    /// retransmissions whose timer expired, and any owed ACK.
    ///
    /// Once the peer is declared dead the endpoint goes quiet (no data, no
    /// retransmissions, no ACKs).
    pub fn poll(&mut self, now: SimTime) -> Vec<Frame> {
        if self.dead {
            return Vec::new();
        }
        let mut out = Vec::new();
        // Fill the window.
        while self.in_flight.len() < WINDOW {
            match self.send_queue.pop_front() {
                Some((seq, data)) => {
                    out.push(self.encode(KIND_DATA, seq, self.recv_next, &data));
                    self.in_flight.insert(
                        seq,
                        InFlight {
                            data,
                            sent_at: now,
                            retries: 0,
                        },
                    );
                }
                None => break,
            }
        }
        // Retransmit expired segments; collect first so `encode` (which
        // borrows `self`) runs after the mutable walk.
        let rto = self.rtt.rto();
        let mut expired: Vec<(u64, Bytes)> = Vec::new();
        let mut budget_exhausted = false;
        for (&seq, inflight) in self.in_flight.iter_mut() {
            if now - inflight.sent_at >= rto {
                if inflight.retries >= self.max_retries {
                    budget_exhausted = true;
                    break;
                }
                inflight.retries += 1;
                inflight.sent_at = now;
                expired.push((seq, inflight.data.clone()));
            }
        }
        if budget_exhausted {
            self.dead = true;
            return Vec::new();
        }
        if !expired.is_empty() {
            // One backoff per timer expiry event (RFC 6298 §5.5), not per
            // segment: the expired batch shares one path estimate.
            self.rtt.on_timeout();
        }
        for (seq, data) in expired {
            self.retransmissions += 1;
            out.push(self.encode(KIND_DATA, seq, self.recv_next, &data));
        }
        // Piggyback-less ACK if owed and nothing else carried it.
        if self.ack_pending {
            out.push(self.encode(KIND_ACK, 0, self.recv_next, &Bytes::new()));
            self.ack_pending = false;
        }
        out
    }

    /// Ingest a frame addressed to this endpoint at time `now`.
    ///
    /// `now` feeds the RTT estimator: cumulative ACKs covering segments that
    /// were never retransmitted yield `now − sent_at` samples (Karn's rule
    /// excludes retransmitted segments, whose ACKs are ambiguous).
    pub fn on_frame(&mut self, frame: &Frame, now: SimTime) {
        if frame.src != self.remote || frame.dst != self.local {
            return;
        }
        let seg = match parse_segment(&frame.payload) {
            Ok(seg) => seg,
            Err(_) => {
                self.malformed += 1;
                return;
            }
        };

        // Cumulative ACK processing (both DATA and ACK carry it).
        if seg.ack > self.send_base {
            for (_, inflight) in self.in_flight.range(..seg.ack) {
                if inflight.retries == 0 {
                    self.rtt.on_sample(now - inflight.sent_at);
                }
            }
            self.send_base = seg.ack;
            self.in_flight.retain(|&s, _| s >= seg.ack);
        }

        if seg.kind == KIND_DATA {
            let data = frame.payload.slice(HEADER_LEN..HEADER_LEN + seg.len);
            if seg.seq >= self.recv_next {
                self.recv_buf.entry(seg.seq).or_insert(data);
                // Deliver any now-contiguous prefix.
                while let Some(d) = self.recv_buf.remove(&self.recv_next) {
                    self.delivered.push_back(d);
                    self.recv_next += 1;
                }
            }
            // Duplicate or new: either way the peer needs our current ack.
            self.ack_pending = true;
        }
    }

    /// Take everything delivered in order so far.
    pub fn take_delivered(&mut self) -> Vec<Bytes> {
        self.delivered.drain(..).collect()
    }
}

/// Drive a pair of endpoints over a [`crate::net::Network`] until both are
/// idle, either declares its peer dead, or `deadline` passes. Returns the
/// simulated completion time.
///
/// This is the integration harness the collector uses: it interleaves
/// `poll`, frame transmission, network advancement and inbox drains on a
/// fixed tick.
pub fn drive_until_idle(
    net: &mut crate::net::Network,
    a: &mut Endpoint,
    b: &mut Endpoint,
    start: SimTime,
    tick: SimDuration,
    deadline: SimTime,
) -> SimTime {
    let mut now = start;
    loop {
        for f in a.poll(now) {
            net.send(f, now);
        }
        for f in b.poll(now) {
            net.send(f, now);
        }
        now += tick;
        net.advance_to(now);
        for f in net.take_inbox(a.local()) {
            a.on_frame(&f, now);
        }
        for f in net.take_inbox(b.local()) {
            b.on_frame(&f, now);
        }
        let done = (a.idle() && b.idle()) || a.peer_dead() || b.peer_dead();
        if done || now >= deadline {
            // One extra exchange so final ACKs land.
            for f in a.poll(now) {
                net.send(f, now);
            }
            for f in b.poll(now) {
                net.send(f, now);
            }
            net.advance_to(now + tick);
            for f in net.take_inbox(a.local()) {
                a.on_frame(&f, now + tick);
            }
            for f in net.take_inbox(b.local()) {
                b.on_frame(&f, now + tick);
            }
            return now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Network;
    use frostlab_simkern::rng::Rng;

    fn pair() -> (Network, Endpoint, Endpoint) {
        seeded_pair(7)
    }

    fn seeded_pair(seed: u64) -> (Network, Endpoint, Endpoint) {
        let mut net = Network::new(&Rng::new(seed));
        let sw = net.add_switch();
        let (ma, mb) = (MacAddr::from_id(1), MacAddr::from_id(2));
        net.add_host(ma);
        net.add_host(mb);
        net.attach_host(ma, sw, 0).expect("free port");
        net.attach_host(mb, sw, 1).expect("free port");
        (net, Endpoint::new(ma, mb), Endpoint::new(mb, ma))
    }

    fn msgs(n: usize) -> Vec<Bytes> {
        (0..n)
            .map(|i| Bytes::from(format!("message-{i:04}-{}", "x".repeat(i % 50))))
            .collect()
    }

    #[test]
    fn in_order_delivery_clean_network() {
        let (mut net, mut a, mut b) = pair();
        let sent = msgs(50);
        for m in &sent {
            a.send(m.clone());
        }
        drive_until_idle(
            &mut net,
            &mut a,
            &mut b,
            SimTime::ZERO,
            SimDuration::secs(2),
            SimTime::from_secs(3600),
        );
        assert_eq!(b.take_delivered(), sent);
        assert_eq!(a.retransmissions, 0);
        assert!(!a.peer_dead());
    }

    #[test]
    fn reliable_under_heavy_loss() {
        // One collection round's log deltas: 19 hosts × 160 bytes, each
        // payload distinct so a reordering would show.
        let round: Vec<Bytes> = (0..19)
            .map(|h| {
                Bytes::from(
                    (0..160)
                        .map(|i| ((h * 160 + i) % 251) as u8)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        // (network seed, frame loss, messages, driver step): the 30 % stress
        // case, then that round at the 5 % loss the retry machinery is
        // tuned for, over several seeds.
        let mut cases = vec![(7, 0.3, msgs(40), SimDuration::secs(2))];
        cases.extend((1..=8).map(|seed| (seed, 0.05, round.clone(), SimDuration::secs(1))));
        let mut retransmissions = Vec::new();
        for (seed, loss, sent, step) in cases {
            let (mut net, mut a, mut b) = seeded_pair(seed);
            net.loss_prob = loss;
            for m in &sent {
                a.send(m.clone());
            }
            drive_until_idle(
                &mut net,
                &mut a,
                &mut b,
                SimTime::ZERO,
                step,
                SimTime::from_secs(24 * 3600),
            );
            assert_eq!(
                b.take_delivered(),
                sent,
                "seed {seed}, loss {loss}: all messages, in order, despite loss"
            );
            assert!(!a.peer_dead(), "seed {seed}, loss {loss}: session died");
            retransmissions.push(a.retransmissions);
        }
        assert!(retransmissions[0] > 0, "30 % loss forced no retransmission");
        assert!(
            retransmissions[1..].iter().sum::<u64>() > 0,
            "5 % loss forced no retransmission on any seed"
        );
    }

    #[test]
    fn rto_adapts_below_the_initial_timer() {
        let (mut net, mut a, mut b) = pair();
        let sent = msgs(40);
        for m in &sent {
            a.send(m.clone());
        }
        drive_until_idle(
            &mut net,
            &mut a,
            &mut b,
            SimTime::ZERO,
            SimDuration::secs(2),
            SimTime::from_secs(3600),
        );
        // Round trip on this two-hop path is ~4 s; after the variance term
        // settles the adaptive RTO must beat the fixed 10 s default.
        assert!(a.rtt_estimator().srtt().is_some(), "ACKs produced samples");
        assert!(
            a.rto() < DEFAULT_RTO,
            "converged rto {:?} still at/above the fixed default",
            a.rto()
        );
    }

    #[test]
    fn rto_backs_off_exponentially_while_peer_is_gone() {
        let (mut net, mut a, mut _b) = pair();
        net.set_switch_up(crate::net::SwitchId(0), false);
        a.send(Bytes::from_static(b"into the void"));
        let mut now = SimTime::ZERO;
        let mut rtos = vec![a.rto()];
        for _ in 0..10 {
            for f in a.poll(now) {
                net.send(f, now);
            }
            if a.rto() != *rtos.last().expect("seeded") {
                rtos.push(a.rto());
            }
            now += SimDuration::secs(10);
        }
        // 10 → 20 → 40 … every retransmission doubles the timer.
        assert!(rtos.len() >= 3, "expected several backoffs, saw {rtos:?}");
        assert!(rtos.windows(2).all(|w| w[1] > w[0]), "rtos {rtos:?}");
        assert!(a.retransmissions >= 2);
    }

    #[test]
    fn max_retries_declares_peer_dead() {
        let (mut net, mut a, mut b) = pair();
        net.set_switch_up(crate::net::SwitchId(0), false);
        a.send(Bytes::from_static(b"is anyone there?"));
        a.max_retries = 3;
        let end = drive_until_idle(
            &mut net,
            &mut a,
            &mut b,
            SimTime::ZERO,
            SimDuration::secs(2),
            SimTime::from_secs(14 * 24 * 3600),
        );
        assert!(a.peer_dead(), "silence must not retransmit forever");
        assert_eq!(a.error(), Some(NetError::PeerDead));
        assert_eq!(a.retransmissions, 3, "budget respected");
        assert!(
            end < SimTime::from_secs(24 * 3600),
            "gave up promptly, not at the drive deadline"
        );
        // Dead endpoints go quiet.
        assert!(a.poll(end + SimDuration::hours(1)).is_empty());
    }

    #[test]
    fn karn_rule_ignores_retransmitted_samples() {
        let (mut net, mut a, mut b) = pair();
        a.send(Bytes::from_static(b"only-once"));
        // Transmit but drop everything (switch down): forces a retransmit.
        net.set_switch_up(crate::net::SwitchId(0), false);
        for f in a.poll(SimTime::ZERO) {
            net.send(f, SimTime::ZERO);
        }
        net.advance_to(SimTime::from_secs(5));
        // Switch returns; the retransmission at t=10 (initial RTO) gets
        // through and is eventually ACKed — but its RTT is ambiguous, so no
        // sample may be taken.
        net.set_switch_up(crate::net::SwitchId(0), true);
        let retx_at = SimTime::from_secs(10);
        for f in a.poll(retx_at) {
            net.send(f, retx_at);
        }
        net.advance_to(SimTime::from_secs(13));
        for f in net.take_inbox(b.local()) {
            b.on_frame(&f, SimTime::from_secs(13));
        }
        for f in b.poll(SimTime::from_secs(13)) {
            net.send(f, SimTime::from_secs(13));
        }
        net.advance_to(SimTime::from_secs(16));
        for f in net.take_inbox(a.local()) {
            a.on_frame(&f, SimTime::from_secs(16));
        }
        assert!(a.idle(), "retransmission was ACKed");
        assert!(
            a.rtt_estimator().srtt().is_none(),
            "Karn's rule: no sample from a retransmitted segment"
        );
    }

    #[test]
    fn bidirectional_traffic() {
        let (mut net, mut a, mut b) = pair();
        let to_b = msgs(20);
        let to_a: Vec<Bytes> = (0..20).map(|i| Bytes::from(format!("resp-{i}"))).collect();
        for m in &to_b {
            a.send(m.clone());
        }
        for m in &to_a {
            b.send(m.clone());
        }
        drive_until_idle(
            &mut net,
            &mut a,
            &mut b,
            SimTime::ZERO,
            SimDuration::secs(2),
            SimTime::from_secs(3600),
        );
        assert_eq!(b.take_delivered(), to_b);
        assert_eq!(a.take_delivered(), to_a);
    }

    #[test]
    fn window_limits_in_flight() {
        let (_net, mut a, _b) = pair();
        for m in msgs(30) {
            a.send(m);
        }
        let frames = a.poll(SimTime::ZERO);
        let data_frames = frames.iter().filter(|f| f.payload[0] == KIND_DATA).count();
        assert_eq!(data_frames, WINDOW);
    }

    #[test]
    fn duplicates_are_suppressed() {
        let (mut net, mut a, mut b) = pair();
        a.send(Bytes::from_static(b"only-once"));
        // Transmit, deliver; then force a retransmission by never letting
        // the ACK reach back (drop everything b sends this round).
        for f in a.poll(SimTime::ZERO) {
            net.send(f, SimTime::ZERO);
        }
        net.advance_to(SimTime::from_secs(5));
        for f in net.take_inbox(b.local()) {
            b.on_frame(&f, SimTime::from_secs(5));
        }
        let _ = b.poll(SimTime::from_secs(5)); // ACK frames discarded
                                               // RTO expires; a retransmits; b sees a duplicate.
        let retx_at = SimTime::from_secs(15);
        for f in a.poll(retx_at) {
            net.send(f, retx_at);
        }
        net.advance_to(SimTime::from_secs(20));
        for f in net.take_inbox(b.local()) {
            b.on_frame(&f, SimTime::from_secs(20));
        }
        assert_eq!(b.take_delivered().len(), 1, "exactly one delivery");
        assert_eq!(a.retransmissions, 1);
    }

    #[test]
    fn frames_from_strangers_ignored() {
        let (_net, _a, mut b) = pair();
        let stranger = Frame::new(
            MacAddr::from_id(99),
            MacAddr::from_id(2),
            Bytes::from_static(&[0u8; 30]),
        );
        b.on_frame(&stranger, SimTime::ZERO);
        assert!(b.take_delivered().is_empty());
        assert_eq!(b.malformed, 0, "stranger frames are filtered, not parsed");
    }

    #[test]
    fn malformed_frames_ignored() {
        let (_net, a, mut b) = pair();
        let junk = Frame::new(a.remote, a.local, Bytes::from_static(b"tiny"));
        // (src=b's remote? construct directly: from a's perspective) —
        // simpler: craft a frame from the correct peer but too short.
        let short = Frame::new(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Bytes::from_static(b"xy"),
        );
        b.on_frame(&short, SimTime::ZERO);
        b.on_frame(&junk, SimTime::ZERO);
        assert!(b.take_delivered().is_empty());
        assert_eq!(
            b.malformed, 1,
            "short peer frame counted, stranger frame filtered"
        );
    }

    #[test]
    fn large_payload_transfer() {
        let (mut net, mut a, mut b) = pair();
        let big: Vec<Bytes> = (0..16)
            .map(|i| Bytes::from(vec![i as u8; 8 * 1024]))
            .collect();
        for m in &big {
            a.send(m.clone());
        }
        drive_until_idle(
            &mut net,
            &mut a,
            &mut b,
            SimTime::ZERO,
            SimDuration::secs(2),
            SimTime::from_secs(3600),
        );
        let got = b.take_delivered();
        assert_eq!(got.len(), 16);
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, m)| m.len() == 8192 && m[0] == i as u8));
    }

    #[test]
    fn estimator_tracks_and_clamps() {
        let mut e = RttEstimator::new();
        assert_eq!(e.rto(), DEFAULT_RTO);
        e.on_sample(SimDuration::secs(4));
        // First sample: SRTT=4, RTTVAR=2 → RTO = 4 + max(1, 8) = 12.
        assert_eq!(e.rto(), SimDuration::secs(12));
        for _ in 0..32 {
            e.on_sample(SimDuration::secs(4));
        }
        // Variance decays on a steady path; the ×4 fixed-point floor leaves
        // it at 3 s (3 >> 2 == 0), so RTO settles at SRTT + 3.
        assert_eq!(e.rto(), SimDuration::secs(7));
        e.on_timeout();
        assert_eq!(e.rto(), SimDuration::secs(14));
        for _ in 0..16 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), MAX_RTO, "backoff clamps at MAX_RTO");
        // A fresh sample after recovery re-derives the RTO from state.
        e.on_sample(SimDuration::secs(4));
        assert!(e.rto() < MAX_RTO);
    }
}
