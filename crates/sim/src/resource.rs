//! Resource servers: the building blocks of the contention model.
//!
//! [`FifoResource`] is the paper's single-class FIFO server (a CPU, a NIC
//! port). [`ClassedResource`] is the same server with a two-class priority
//! discipline — [`TrafficClass::Ordering`] jobs are served ahead of queued
//! [`TrafficClass::Bulk`] jobs — which models a host whose receive path
//! gives consensus frames their own lane instead of queueing them behind
//! the payload flood.

use std::collections::VecDeque;

use iabc_types::{Duration, Time, TrafficClass};

/// A single-server FIFO queue (a CPU, a NIC transmit port, a NIC receive
/// port).
///
/// Jobs are submitted with [`FifoResource::acquire`], which returns the time
/// at which the job completes given everything previously queued. Because
/// the simulator submits jobs in nondecreasing time order, this models an
/// exact FIFO queue without storing the jobs themselves.
///
/// The server keeps aggregate statistics (busy time, job count) from which
/// experiment harnesses compute utilization and detect saturation.
///
/// # Example
///
/// ```
/// use iabc_sim::resource::FifoResource;
/// use iabc_types::{Duration, Time};
///
/// let mut cpu = FifoResource::new();
/// let d = Duration::from_micros(10);
/// let t0 = Time::ZERO;
/// assert_eq!(cpu.acquire(t0, d), t0 + d);          // idle: starts at once
/// assert_eq!(cpu.acquire(t0, d), t0 + d + d);      // queued behind job 1
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoResource {
    busy_until: Time,
    busy_total: Duration,
    jobs: u64,
}

impl FifoResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        FifoResource::default()
    }

    /// Submits a job of length `dur` at time `now`; returns its completion
    /// time. The job starts at `max(now, end of previous job)`.
    pub fn acquire(&mut self, now: Time, dur: Duration) -> Time {
        let start = now.max(self.busy_until);
        let done = start + dur;
        self.busy_until = done;
        self.busy_total += dur;
        self.jobs += 1;
        done
    }

    /// The instant the resource becomes idle (given jobs so far).
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Current backlog relative to `now`: how long a zero-length job
    /// submitted now would wait.
    pub fn backlog(&self, now: Time) -> Duration {
        if self.busy_until > now {
            self.busy_until.elapsed_since(now)
        } else {
            Duration::ZERO
        }
    }

    /// Total busy time accumulated over the run.
    pub fn busy_total(&self) -> Duration {
        self.busy_total
    }

    /// Number of jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }
}

/// How far the ordering lane's *contended service time* may run ahead of
/// bulk's before a [`ClassedResource`] serves a waiting bulk job.
///
/// The lane's latency win comes from service *order* (an ordering frame
/// jumps the queued payload flood); its danger is service *share* — under
/// overload the ordering path generates its own work (rcv checks over
/// growing proposals, round churn while payloads lag), and pure strict
/// priority lets that feedback loop starve payload dissemination entirely,
/// after which nothing can be a-delivered. The deficit rule bounds the
/// loop: while both classes contend, ordering may consume at most this
/// much service time beyond parity, then one bulk job runs and pays the
/// debt down. Saturated, the classes converge to an equal time share;
/// uncontended, ordering keeps full priority.
const ORDERING_ADVANTAGE: Duration = Duration::from_micros(1000);

/// A single-server queue with two service classes: priority of
/// [`TrafficClass::Ordering`] over [`TrafficClass::Bulk`] in *order*,
/// bounded to an (approximately equal) *time share* by a deficit rule —
/// see `ORDERING_ADVANTAGE` — so neither class can starve the other.
///
/// Unlike [`FifoResource`] — which can compute a job's completion time at
/// submission because FIFO order is fixed — a priority server must *hold*
/// queued jobs: a later-arriving ordering job overtakes bulk work that has
/// not started yet. The resource therefore stores each queued job's service
/// demand together with an opaque payload `J` (the simulator's deferred
/// completion event) and hands jobs back one at a time:
///
/// * [`ClassedResource::try_start`] — submit a job; returns its completion
///   time if the server is idle (the job runs immediately), else `None`
///   (the caller must [`ClassedResource::enqueue`] it).
/// * [`ClassedResource::pop_next`] — called when the server frees up;
///   dequeues the next job under the priority discipline and returns its
///   completion time and payload.
///
/// Service is non-preemptive: a bulk job in service finishes before an
/// ordering arrival is considered. Everything is deterministic — identical
/// submission sequences produce identical completion times.
#[derive(Debug, Clone)]
pub struct ClassedResource<J> {
    busy_until: Time,
    /// Pending jobs per class, FIFO within a class (index by
    /// [`TrafficClass::index`]).
    queues: [VecDeque<(Duration, J)>; 2],
    /// Total queued service demand per class (for backlog accounting).
    queued_demand: [Duration; 2],
    busy_total: [Duration; 2],
    jobs: [u64; 2],
    /// Ordering service time consumed while bulk waited, net of the bulk
    /// service that has paid it down — the deficit counter.
    ordering_debt: Duration,
    ordering_advantage: Duration,
}

impl<J> Default for ClassedResource<J> {
    fn default() -> Self {
        ClassedResource::new()
    }
}

impl<J> ClassedResource<J> {
    /// Creates an idle two-class resource with the default
    /// `ORDERING_ADVANTAGE` deficit bound.
    pub fn new() -> Self {
        ClassedResource::with_ordering_advantage(ORDERING_ADVANTAGE)
    }

    /// Creates an idle resource whose ordering lane may run `advantage` of
    /// contended service time ahead of bulk before a bulk job is served.
    fn with_ordering_advantage(advantage: Duration) -> Self {
        ClassedResource {
            busy_until: Time::ZERO,
            queues: [VecDeque::new(), VecDeque::new()],
            queued_demand: [Duration::ZERO; 2],
            busy_total: [Duration::ZERO; 2],
            jobs: [0; 2],
            ordering_debt: Duration::ZERO,
            ordering_advantage: advantage,
        }
    }

    /// Whether the server is idle at `now` with nothing queued.
    fn is_idle(&self, now: Time) -> bool {
        now >= self.busy_until && self.queues.iter().all(VecDeque::is_empty)
    }

    /// Submits a job of class `class` and length `dur` at time `now`. If
    /// the server can start it immediately (idle, nothing queued) the job
    /// is accepted and its completion time returned; otherwise `None` —
    /// the caller must hand the job to [`ClassedResource::enqueue`].
    pub fn try_start(&mut self, now: Time, class: TrafficClass, dur: Duration) -> Option<Time> {
        if !self.is_idle(now) {
            return None;
        }
        let done = now + dur;
        self.busy_until = done;
        self.busy_total[class.index()] += dur;
        self.jobs[class.index()] += 1;
        // Nothing was waiting: no contention, the debt is irrelevant here.
        Some(done)
    }

    /// Queues a job behind the work already held. FIFO within its class.
    pub fn enqueue(&mut self, class: TrafficClass, dur: Duration, job: J) {
        self.queued_demand[class.index()] += dur;
        self.queues[class.index()].push_back((dur, job));
    }

    /// Dequeues and starts the next job at `now` (the caller invokes this
    /// exactly when the server frees up). Returns the job's completion
    /// time and payload, or `None` if nothing is queued.
    ///
    /// Discipline: ordering first while its contended-service debt is
    /// within the advantage; past it, one bulk job runs and pays the debt
    /// down. Debt only moves while *both* classes have queued work —
    /// uncontended priority is free.
    pub fn pop_next(&mut self, now: Time) -> Option<(Time, J)> {
        let o = TrafficClass::Ordering.index();
        let b = TrafficClass::Bulk.index();
        let contended = !self.queues[o].is_empty() && !self.queues[b].is_empty();
        let class = if self.queues[o].is_empty() {
            TrafficClass::Bulk
        } else if self.queues[b].is_empty() || self.ordering_debt <= self.ordering_advantage {
            TrafficClass::Ordering
        } else {
            TrafficClass::Bulk
        };
        let (dur, job) = self.queues[class.index()].pop_front()?;
        self.queued_demand[class.index()] -= dur;
        if contended {
            match class {
                TrafficClass::Ordering => self.ordering_debt += dur,
                TrafficClass::Bulk => {
                    self.ordering_debt = self.ordering_debt.saturating_sub(dur);
                }
            }
        }
        let start = now.max(self.busy_until);
        let done = start + dur;
        self.busy_until = done;
        self.busy_total[class.index()] += dur;
        self.jobs[class.index()] += 1;
        Some((done, job))
    }

    /// The instant the in-service job finishes (queued work excluded).
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Queued service demand of one class (in-service job excluded).
    pub fn queued_demand(&self, class: TrafficClass) -> Duration {
        self.queued_demand[class.index()]
    }

    /// Number of queued jobs of one class.
    pub fn queue_len(&self, class: TrafficClass) -> usize {
        self.queues[class.index()].len()
    }

    /// Backlog a new job of `class` would see at `now`: residual service
    /// time plus the queued demand of every class that would be served
    /// before it (its own queue always; for bulk, the ordering queue too).
    ///
    /// For ordering jobs this is the lane's whole point: the bulk queue
    /// does not appear in the bound (up to the one-job non-preemption
    /// residual and the burst discipline).
    pub fn backlog(&self, now: Time, class: TrafficClass) -> Duration {
        let residual = if self.busy_until > now {
            self.busy_until.elapsed_since(now)
        } else {
            Duration::ZERO
        };
        let mut ahead = self.queued_demand[class.index()];
        if class == TrafficClass::Bulk {
            ahead += self.queued_demand[TrafficClass::Ordering.index()];
        }
        residual + ahead
    }

    /// Total busy time accumulated for one class.
    pub fn busy_total(&self, class: TrafficClass) -> Duration {
        self.busy_total[class.index()]
    }

    /// Jobs served (started) for one class.
    pub fn jobs(&self, class: TrafficClass) -> u64 {
        self.jobs[class.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Duration {
        Duration::from_micros(v)
    }

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = FifoResource::new();
        let t = Time::from_nanos(100);
        assert_eq!(r.acquire(t, us(5)), t + us(5));
    }

    #[test]
    fn jobs_queue_fifo() {
        let mut r = FifoResource::new();
        let t = Time::ZERO;
        let c1 = r.acquire(t, us(10));
        let c2 = r.acquire(t, us(10));
        let c3 = r.acquire(c2, us(10)); // arrives exactly when idle
        assert_eq!(c1, t + us(10));
        assert_eq!(c2, t + us(20));
        assert_eq!(c3, t + us(30));
    }

    #[test]
    fn late_arrival_to_idle_resource_starts_at_arrival() {
        let mut r = FifoResource::new();
        r.acquire(Time::ZERO, us(1));
        let t = Time::ZERO + us(100);
        assert_eq!(r.acquire(t, us(2)), t + us(2));
    }

    #[test]
    fn backlog_reports_waiting_time() {
        let mut r = FifoResource::new();
        r.acquire(Time::ZERO, us(50));
        assert_eq!(r.backlog(Time::ZERO + us(20)), us(30));
        assert_eq!(r.backlog(Time::ZERO + us(60)), Duration::ZERO);
    }

    #[test]
    fn stats_accumulate() {
        let mut r = FifoResource::new();
        r.acquire(Time::ZERO, us(10));
        r.acquire(Time::ZERO, us(30));
        assert_eq!(r.busy_total(), us(40));
        assert_eq!(r.jobs(), 2);
    }

    // ---- ClassedResource ----

    const ORD: TrafficClass = TrafficClass::Ordering;
    const BLK: TrafficClass = TrafficClass::Bulk;

    /// Drives a ClassedResource like the simulator does: submit everything
    /// at its arrival time (jobs are pre-sorted by time), then serve the
    /// queue to completion. Returns `(label, completion)` per job.
    fn serve_all(
        r: &mut ClassedResource<&'static str>,
        jobs: &[(u64, TrafficClass, u64, &'static str)], // (arrival µs, class, dur µs, label)
    ) -> Vec<(&'static str, Time)> {
        let mut done = Vec::new();
        for &(at, class, dur, label) in jobs {
            let now = Time::ZERO + us(at);
            // Serve everything that completes before this arrival.
            while !r.is_idle(now) && r.busy_until() <= now {
                match r.pop_next(r.busy_until()) {
                    Some((t, l)) => done.push((l, t)),
                    None => break,
                }
            }
            match r.try_start(now, class, us(dur)) {
                Some(t) => done.push((label, t)),
                None => r.enqueue(class, us(dur), label),
            }
        }
        while let Some((t, l)) = {
            let t = r.busy_until();
            r.pop_next(t)
        } {
            done.push((l, t));
        }
        done
    }

    #[test]
    fn ordering_overtakes_queued_bulk() {
        let mut r = ClassedResource::new();
        // One bulk job in service, one queued; an ordering job arrives last
        // and must run before the *queued* bulk job (non-preemptive: the
        // in-service one finishes first).
        let done = serve_all(
            &mut r,
            &[(0, BLK, 100, "b1"), (1, BLK, 100, "b2"), (2, ORD, 10, "o1")],
        );
        let at = |l: &str| done.iter().find(|(x, _)| *x == l).unwrap().1;
        assert_eq!(at("b1"), Time::ZERO + us(100));
        assert_eq!(at("o1"), Time::ZERO + us(110), "ordering must jump the bulk queue");
        assert_eq!(at("b2"), Time::ZERO + us(210));
    }

    #[test]
    fn fifo_within_a_class() {
        let mut r = ClassedResource::new();
        let done = serve_all(
            &mut r,
            &[(0, BLK, 10, "b1"), (1, ORD, 5, "o1"), (2, ORD, 5, "o2"), (3, BLK, 10, "b2")],
        );
        let order: Vec<&str> = done.iter().map(|(l, _)| *l).collect();
        assert_eq!(order, vec!["b1", "o1", "o2", "b2"]);
    }

    #[test]
    fn bulk_starvation_is_bounded_under_sustained_ordering_load() {
        // A bulk job queued behind a sustained ordering flood must start
        // once the ordering lane has consumed ORDERING_ADVANTAGE of
        // contended service — not after the whole flood.
        let mut r: ClassedResource<&'static str> = ClassedResource::new();
        assert!(r.try_start(Time::ZERO, ORD, us(10)).is_some());
        r.enqueue(BLK, us(10), "bulk");
        for _ in 0..10_000 {
            r.enqueue(ORD, us(10), "ord");
        }
        let mut ordering_before_bulk = Duration::ZERO;
        loop {
            let t = r.busy_until();
            let (_, label) = r.pop_next(t).expect("queue not empty");
            if label == "bulk" {
                break;
            }
            ordering_before_bulk += us(10);
            assert!(
                ordering_before_bulk <= ORDERING_ADVANTAGE + us(10),
                "bulk starved past the deficit bound: {ordering_before_bulk}"
            );
        }
        assert_eq!(ordering_before_bulk, ORDERING_ADVANTAGE + us(10));
        // And under sustained contention the shares converge to ~1:1
        // (measured over the steady tail, past the initial advantage).
        let (ord0, blk0) = (r.busy_total(ORD), r.busy_total(BLK));
        r.enqueue(BLK, us(10), "bulk");
        for _ in 0..200 {
            let t = r.busy_until();
            r.pop_next(t).unwrap();
            if r.queue_len(BLK) == 0 {
                r.enqueue(BLK, us(10), "bulk");
            }
        }
        let ord = (r.busy_total(ORD) - ord0).as_secs_f64();
        let blk = (r.busy_total(BLK) - blk0).as_secs_f64();
        let share = ord / (ord + blk);
        assert!(
            (0.35..=0.65).contains(&share),
            "contended shares must stay near parity, ordering got {share:.2}"
        );
    }

    #[test]
    fn uncontended_ordering_accrues_no_debt() {
        // Ordering served while the bulk queue is empty must not pay
        // later: priority is free when nobody waits.
        let mut r: ClassedResource<u32> = ClassedResource::with_ordering_advantage(us(20));
        assert!(r.try_start(Time::ZERO, ORD, us(10)).is_some());
        for i in 0..10 {
            r.enqueue(ORD, us(10), i);
        }
        for _ in 0..10 {
            let t = r.busy_until();
            r.pop_next(t).unwrap();
        }
        // 100 µs of uncontended ordering served; a fresh contention round
        // still grants ordering its full advantage before bulk runs.
        r.enqueue(BLK, us(10), 100);
        r.enqueue(ORD, us(10), 200);
        r.enqueue(ORD, us(10), 201);
        r.enqueue(ORD, us(10), 202);
        let mut order = Vec::new();
        while let Some((_, j)) = {
            let t = r.busy_until();
            r.pop_next(t)
        } {
            order.push(j);
        }
        // Debt reaches 30 µs (> 20 µs advantage) after three contended
        // ordering jobs, then bulk runs.
        assert_eq!(order, vec![200, 201, 202, 100]);
    }

    #[test]
    fn static_resources_never_adapt_their_advantage() {
        let mut r: ClassedResource<&'static str> = ClassedResource::new();
        assert!(r.try_start(Time::ZERO, BLK, us(9_000)).is_some());
        for _ in 0..100 {
            r.enqueue(BLK, us(9_000), "b");
        }
        while r.pop_next(r.busy_until()).is_some() {}
        assert_eq!(r.ordering_advantage, ORDERING_ADVANTAGE);
    }

    #[test]
    fn per_class_accounting_tracks_backlog_and_utilization() {
        let mut r: ClassedResource<()> = ClassedResource::new();
        assert!(r.is_idle(Time::ZERO));
        let done = r.try_start(Time::ZERO, BLK, us(50)).unwrap();
        assert_eq!(done, Time::ZERO + us(50));
        r.enqueue(ORD, us(10), ());
        r.enqueue(BLK, us(20), ());
        assert_eq!(r.queue_len(ORD), 1);
        assert_eq!(r.queue_len(BLK), 1);
        assert_eq!(r.queued_demand(ORD), us(10));
        assert_eq!(r.queued_demand(BLK), us(20));
        // At t=20: 30 µs of bulk service remain.
        let now = Time::ZERO + us(20);
        assert_eq!(r.backlog(now, ORD), us(40), "residual 30 + own queue 10");
        assert_eq!(r.backlog(now, BLK), us(60), "residual 30 + ordering 10 + own 20");
        // Serve out and check busy totals split by class.
        let t = r.busy_until();
        let (t1, ()) = r.pop_next(t).unwrap();
        let (t2, ()) = r.pop_next(t1).unwrap();
        assert_eq!(t2, Time::ZERO + us(80));
        assert_eq!(r.busy_total(ORD), us(10));
        assert_eq!(r.busy_total(BLK), us(70));
        assert_eq!(r.jobs(ORD), 1);
        assert_eq!(r.jobs(BLK), 2);
        assert_eq!(r.queued_demand(ORD), Duration::ZERO);
        assert_eq!(r.queued_demand(BLK), Duration::ZERO);
    }

    #[test]
    fn identical_submission_sequences_complete_identically() {
        // Determinism: the discipline has no hidden state — two resources
        // fed the same (pseudo-random) submission sequence produce the
        // same completion times in the same order.
        let jobs: Vec<(u64, TrafficClass, u64, &'static str)> = (0..200u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
                let class = if h % 3 == 0 { ORD } else { BLK };
                let label: &'static str = if class == ORD { "o" } else { "b" };
                (i * 7, class, 1 + h % 40, label)
            })
            .collect();
        let mut a = ClassedResource::new();
        let mut b = ClassedResource::new();
        let ra = serve_all(&mut a, &jobs);
        let rb = serve_all(&mut b, &jobs);
        assert_eq!(ra, rb);
        assert_eq!(a.busy_total(ORD), b.busy_total(ORD));
        assert_eq!(a.busy_total(BLK), b.busy_total(BLK));
        // Work conservation: one server, classes never overlap.
        assert_eq!(ra.len(), jobs.len());
        let total = a.busy_total(ORD) + a.busy_total(BLK);
        let expected: Duration = jobs.iter().map(|&(_, _, d, _)| us(d)).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn try_start_refuses_while_busy_or_backlogged() {
        let mut r: ClassedResource<()> = ClassedResource::new();
        assert!(r.try_start(Time::ZERO, ORD, us(10)).is_some());
        assert!(r.try_start(Time::ZERO + us(5), ORD, us(1)).is_none(), "server busy");
        r.enqueue(ORD, us(1), ());
        assert!(
            r.try_start(Time::ZERO + us(20), ORD, us(1)).is_none(),
            "queued work must drain first even if the server is idle"
        );
        let (done, ()) = r.pop_next(Time::ZERO + us(20)).unwrap();
        assert_eq!(done, Time::ZERO + us(21), "late pop starts at now, not busy_until");
        assert!(r.try_start(done, BLK, us(2)).is_some());
    }
}
