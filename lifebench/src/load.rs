//! The open-loop serve phase: one seeded schedule per request class
//! (neighbour reads, profile scans, profile updates), issued on time
//! whatever the service does, each request timed from when it was
//! due. A watcher thread measures update freshness and checks that the
//! served generation never goes backwards.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use knn_graph::{Neighbor, UserId};
use knn_serve::{KnnService, ServeError, ServiceStats, ShardedKnnService};
use knn_sim::{ItemId, Profile, ProfileDelta, ProfileStore};

use crate::spec::{Rates, Spec, RATES};
use crate::trace::Tracer;
use crate::util::{tighten_timer_slack, Rng};

/// Item ids far above any generated item: each update adds one, so
/// its arrival in a served snapshot is unambiguous.
pub const MARKER_BASE: u32 = 50_000_000;

/// Longest the generators may run past the window before the rest of
/// their schedule is abandoned as failed, and longest the watcher
/// waits for the last update to become visible.
const OVERRUN: Duration = Duration::from_secs(30);

/// The query front-end of either service shape.
#[derive(Clone)]
pub enum Front {
    Single(KnnService),
    Sharded(ShardedKnnService),
}

impl Front {
    fn neighbors(&self, u: UserId) -> Result<Vec<Neighbor>, ServeError> {
        match self {
            Front::Single(s) => s.neighbors(u),
            Front::Sharded(s) => s.neighbors(u),
        }
    }

    fn query_profile(&self, q: &Profile, k: usize) -> Result<Vec<Neighbor>, ServeError> {
        match self {
            Front::Single(s) => s.query_profile(q, k),
            Front::Sharded(s) => s.query_profile(q, k),
        }
    }

    fn submit(&self, d: ProfileDelta) -> Result<(), ServeError> {
        match self {
            Front::Single(s) => s.submit_update(d),
            Front::Sharded(s) => s.submit_update(d),
        }
    }

    pub fn stats(&self) -> ServiceStats {
        match self {
            Front::Single(s) => s.stats(),
            Front::Sharded(s) => s.stats(),
        }
    }

    /// The served generation as a reader sees it. The sharded service
    /// exposes it through a coherent batch read (which bypasses the
    /// query cache).
    fn generation(&self, probe: UserId) -> u64 {
        match self {
            Front::Single(s) => s.snapshot().epoch(),
            Front::Sharded(s) => s.neighbors_many(&[probe]).map_or(0, |b| b.generation),
        }
    }

    /// Whether `user`'s marker item is served. The sharded service has
    /// no snapshot accessor, so a one-item profile query finds the
    /// only user that rates the marker.
    fn visible(&self, user: UserId, marker: u32) -> bool {
        match self {
            Front::Single(s) => s
                .snapshot()
                .profiles()
                .get(user)
                .get(ItemId::new(marker))
                .is_some(),
            Front::Sharded(s) => {
                let mut q = Profile::new();
                q.set(ItemId::new(marker), 1.0);
                s.query_profile(&q, 1)
                    .ok()
                    .and_then(|top| top.first().map(|n| n.id == user && n.sim > 0.0))
                    .unwrap_or(false)
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Read,
    Scan,
    Update,
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Event {
    due: Duration,
    class: Class,
    user: UserId,
    /// Scan query or replacement profile.
    profile: Option<Profile>,
    marker: u32,
}

/// What one request did, all times relative to the window start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub late: Duration,
    /// From due to completion (what a user waits).
    pub latency: Duration,
    /// The call alone.
    pub call: Duration,
    pub ok: bool,
}

#[derive(Debug, Default)]
pub struct LoadOutcome {
    pub reads: Vec<Sample>,
    pub scans: Vec<Sample>,
    pub updates: Vec<Sample>,
    /// Accepted update → visible in a served snapshot.
    pub fresh: Vec<Duration>,
    /// (user, marker) of every accepted update.
    pub accepted: Vec<(UserId, u32)>,
    /// Correctness violations seen during the window.
    pub violations: Vec<String>,
    pub abandoned: u64,
    pub stats_before: Option<ServiceStats>,
    pub stats_after: Option<ServiceStats>,
}

/// Builds the three schedules for a `seconds`-long window.
fn schedules(seed: u64, seconds: f64, rates: Rates, profiles: &ProfileStore) -> [Vec<Event>; 2] {
    let n = profiles.num_users();
    // Zipf(0.9) popularity over a seeded relabelling of the users.
    let hot = Rng::fork(seed, 11).permutation(n);
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for r in 0..n {
        acc += 1.0 / ((r + 1) as f64).powf(0.9);
        cdf.push(acc);
    }
    let arrivals = |rng: &mut Rng, rate: f64| -> Vec<Duration> {
        let mut t = 0.0;
        let mut out = Vec::new();
        loop {
            t += -(1.0 - rng.unit()).ln() / rate;
            if t >= seconds {
                return out;
            }
            out.push(Duration::from_secs_f64(t));
        }
    };
    let mut rng = Rng::fork(seed, 12);
    let reads: Vec<Event> = arrivals(&mut rng, rates.reads)
        .into_iter()
        .map(|due| {
            let x = rng.unit() * acc;
            let rank = cdf.partition_point(|&c| c < x).min(n - 1);
            Event {
                due,
                class: Class::Read,
                user: UserId::new(hot[rank]),
                profile: None,
                marker: 0,
            }
        })
        .collect();

    let mut rng = Rng::fork(seed, 13);
    let mut mixed: Vec<Event> = arrivals(&mut rng, rates.scans)
        .into_iter()
        .map(|due| {
            // A near-copy of a random user's profile: one item dropped,
            // one weight nudged, so nearly every query is distinct.
            let u = UserId::new(rng.below(n as u64) as u32);
            let mut q = profiles.get(u).clone();
            let entries: Vec<(ItemId, f32)> = q.iter().collect();
            if entries.len() > 1 {
                let (drop, _) = entries[rng.below(entries.len() as u64) as usize];
                q.remove(drop);
            }
            if let Some(&(item, w)) = q.iter().collect::<Vec<_>>().first() {
                q.set(item, w + 0.5 + rng.unit() as f32);
            }
            Event {
                due,
                class: Class::Scan,
                user: u,
                profile: Some(q),
                marker: 0,
            }
        })
        .collect();

    // Updates touch distinct users, so no update supersedes another
    // and every accepted one must end up served.
    let mut rng = Rng::fork(seed, 14);
    let targets = rng.permutation(n);
    for (i, due) in arrivals(&mut rng, rates.updates).into_iter().enumerate() {
        let user = UserId::new(targets[i % n]);
        let marker = MARKER_BASE + i as u32;
        let mut p = profiles.get(user).clone();
        p.set(ItemId::new(marker), 1.0 + rng.unit() as f32);
        mixed.push(Event {
            due,
            class: Class::Update,
            user,
            profile: Some(p),
            marker,
        });
    }
    mixed.sort_by_key(|e| e.due);
    [reads, mixed]
}

/// Sleeps until `due`, then spins the last few microseconds.
fn wait_until(at: Instant) {
    let now = Instant::now();
    if at > now + Duration::from_micros(30) {
        std::thread::sleep(at - now - Duration::from_micros(20));
    }
    while Instant::now() < at {
        std::hint::spin_loop();
    }
}

struct Probe {
    user: UserId,
    marker: u32,
    accepted: Instant,
}

struct Shared {
    pending: Mutex<VecDeque<Probe>>,
    done: AtomicBool,
}

/// Runs the window against `front` and returns every sample.
pub fn run(
    front: &Front,
    wait_for_epoch: &(dyn Fn(u64, Duration) -> bool + Sync),
    spec: &Spec,
    seed: u64,
    seconds: f64,
    profiles: &ProfileStore,
    tracer: Option<&Arc<Tracer>>,
) -> LoadOutcome {
    let k = spec.k;
    let [reads, mixed] = schedules(seed, seconds, RATES, profiles);
    let shared = Arc::new(Shared {
        pending: Mutex::new(VecDeque::new()),
        done: AtomicBool::new(false),
    });
    let mut out = LoadOutcome {
        stats_before: Some(front.stats()),
        ..LoadOutcome::default()
    };
    let start = Instant::now() + Duration::from_millis(20);
    let hard_stop = start + Duration::from_secs_f64(seconds) + OVERRUN;

    let generator = |events: Vec<Event>| {
        let front = front.clone();
        let shared = Arc::clone(&shared);
        let tracer = tracer.cloned();
        move || {
            tighten_timer_slack();
            let mut samples: Vec<(Class, Sample)> = Vec::with_capacity(events.len());
            let mut accepted = Vec::new();
            let mut violations = Vec::new();
            let mut abandoned = 0u64;
            for e in events {
                let due = start + e.due;
                wait_until(due);
                let began = Instant::now();
                if began > hard_stop {
                    abandoned += 1;
                    continue;
                }
                let (ok, name) = match e.class {
                    Class::Read => match front.neighbors(e.user) {
                        Ok(list) => (list.len() <= k, "serve.neighbors"),
                        Err(err) => {
                            violations.push(format!("read of {} failed: {err}", e.user));
                            (false, "serve.neighbors")
                        }
                    },
                    Class::Scan => {
                        let q = e.profile.as_ref().expect("scan query");
                        (front.query_profile(q, k).is_ok(), "serve.query_profile")
                    }
                    Class::Update => {
                        let p = e.profile.expect("update profile");
                        let r = front.submit(ProfileDelta::replace(e.user, p));
                        if r.is_ok() {
                            accepted.push((e.user, e.marker));
                            shared.pending.lock().expect("probe lock").push_back(Probe {
                                user: e.user,
                                marker: e.marker,
                                accepted: Instant::now(),
                            });
                        }
                        (r.is_ok(), "serve.submit_update")
                    }
                };
                let ended = Instant::now();
                if let Some(t) = &tracer {
                    t.request(name, due, began, ended);
                }
                samples.push((
                    e.class,
                    Sample {
                        late: began.saturating_duration_since(due),
                        latency: ended.saturating_duration_since(due),
                        call: ended - began,
                        ok,
                    },
                ));
            }
            (samples, accepted, violations, abandoned)
        }
    };

    // The watcher sleeps on the publication condvar, so it costs no
    // polling and sees each new generation as soon as it is served.
    let watcher = {
        let front = front.clone();
        let shared = Arc::clone(&shared);
        move || {
            let mut fresh = Vec::new();
            let mut violations = Vec::new();
            let mut last_gen = 0u64;
            let mut checked_gen: Option<u64> = None;
            loop {
                let front_probe = {
                    let q = shared.pending.lock().expect("probe lock");
                    q.front().map(|p| (p.user, p.marker, p.accepted))
                };
                let Some((user, marker, accepted)) = front_probe else {
                    if shared.done.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                };
                let generation = front.generation(user);
                if generation < last_gen {
                    violations.push(format!(
                        "served generation went backwards: {generation} after {last_gen}"
                    ));
                }
                last_gen = last_gen.max(generation);
                // A probe is checked once per generation: a new
                // publication is the only thing that can reveal it.
                if checked_gen != Some(generation) && front.visible(user, marker) {
                    fresh.push(accepted.elapsed());
                    shared.pending.lock().expect("probe lock").pop_front();
                    checked_gen = None;
                    continue;
                }
                checked_gen = Some(generation);
                if Instant::now() > hard_stop + OVERRUN {
                    let left = shared.pending.lock().expect("probe lock").len();
                    violations.push(format!("{left} accepted update(s) never became visible"));
                    break;
                }
                wait_for_epoch(generation + 1, Duration::from_millis(2));
            }
            (fresh, violations)
        }
    };

    std::thread::scope(|scope| {
        let w = scope.spawn(watcher);
        let g: Vec<_> = [reads, mixed]
            .into_iter()
            .map(|events| scope.spawn(generator(events)))
            .collect();
        for handle in g {
            let (samples, accepted, violations, abandoned) =
                handle.join().expect("generator thread");
            for (class, s) in samples {
                match class {
                    Class::Read => out.reads.push(s),
                    Class::Scan => out.scans.push(s),
                    Class::Update => out.updates.push(s),
                }
            }
            out.accepted.extend(accepted);
            out.violations.extend(violations);
            out.abandoned += abandoned;
        }
        shared.done.store(true, Ordering::Release);
        let (fresh, violations) = w.join().expect("watcher thread");
        out.fresh = fresh;
        out.violations.extend(violations);
    });
    out.stats_after = Some(front.stats());
    out
}
