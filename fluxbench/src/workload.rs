//! The four workloads and everything that sizes them.

use std::time::Duration;

use fluxprint_engine::{GridConfig, SessionConfig};
use fluxprint_smc::SmcConfig;

/// Grid shards and worker threads for every workload: the 2-core host
/// the baseline was taken on, so nothing is oversubscribed there.
pub const GRID_SHARDS: usize = 2;
/// See [`GRID_SHARDS`].
pub const GRID_THREADS: usize = 2;
/// Per-session ingest-queue capacity; on `serve-open` it is also each
/// connection's credit window.
pub const QUEUE_CAPACITY: usize = 64;

/// `serve-open`: load-generator threads, one connection each.
pub const LOADGEN_THREADS: usize = 2;
/// `serve-open`: every session's round period `P`, which is also its
/// latency limit `L` (an ack must arrive before the next round is due).
pub const SERVE_PERIOD: Duration = Duration::from_millis(32);

/// Which network the sessions track over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// §5's 30×30 perturbed grid of 900 nodes, radius 2.4.
    Paper,
    /// A 12×12 perturbed grid of 144 nodes, radius 4.
    Small,
}

/// One workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Sessions in the grid (or on the daemon).
    pub sessions: usize,
    /// `K`: users per session, all collecting every round.
    pub users: usize,
    /// `N`: predictions per user per round.
    pub n: usize,
    /// `M`: samples kept per user.
    pub m: usize,
    /// Warm-started solving.
    pub warm: bool,
    /// The network.
    pub field: Field,
    /// Sniffed nodes per trace.
    pub sniffers: usize,
    /// Relative Gaussian noise on each sniffed reading (0 = exact).
    pub noise: f64,
    /// Distinct observation traces; session `s` replays trace `s % traces`
    /// from its own tracker seed.
    pub traces: usize,
    /// Session `s` gets a round on tick `t` iff `(s + t) % duty == 0`.
    pub duty: usize,
    /// The grid's hibernation threshold (0 = never).
    pub hibernate_after: u64,
    /// Ticks per second of `--seconds`: the work of one run, frozen from
    /// the baseline host so a run measures for about `--seconds`.
    pub ticks_per_second: f64,
    /// Every `check_stride`-th session is replayed solo by the self-check;
    /// sized so the check costs at most a quarter of the timed phase.
    pub check_stride: usize,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop rounds through a loopback fluxd.
    ServeOpen,
    /// Paper-scale tracking, closed-loop in-process grid.
    TrackPaper,
    /// Warm tracking of many small sessions, closed-loop in-process grid.
    TrackWarm,
    /// A 5%-duty hibernating fleet, in-process grid.
    FleetIdle,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeOpen,
        Workload::TrackPaper,
        Workload::TrackWarm,
        Workload::FleetIdle,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeOpen => "serve-open",
            Workload::TrackPaper => "track-paper",
            Workload::TrackWarm => "track-warm",
            Workload::FleetIdle => "fleet-idle",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's shape.
    pub fn spec(self) -> Spec {
        match self {
            // 256 sessions, one round each per 32 ms: 8000 rounds/s offered.
            Workload::ServeOpen => Spec {
                sessions: 256,
                users: 1,
                n: 16,
                m: 4,
                warm: false,
                field: Field::Small,
                sniffers: 24,
                noise: 0.0,
                traces: 32,
                duty: 1,
                hibernate_after: 0,
                ticks_per_second: 1.0 / SERVE_PERIOD.as_secs_f64(),
                check_stride: 16,
            },
            Workload::TrackPaper => Spec {
                sessions: 8,
                users: 3,
                n: 1000,
                m: 10,
                warm: false,
                field: Field::Paper,
                sniffers: 90,
                noise: 0.05,
                traces: 8,
                duty: 1,
                hibernate_after: 0,
                ticks_per_second: 20.0,
                check_stride: 8,
            },
            Workload::TrackWarm => Spec {
                sessions: 256,
                users: 2,
                n: 64,
                m: 8,
                warm: true,
                field: Field::Small,
                sniffers: 24,
                noise: 0.05,
                traces: 64,
                duty: 1,
                hibernate_after: 0,
                ticks_per_second: 68.0,
                check_stride: 16,
            },
            Workload::FleetIdle => Spec {
                sessions: 16384,
                users: 1,
                n: 16,
                m: 4,
                warm: false,
                field: Field::Small,
                sniffers: 24,
                noise: 0.0,
                traces: 64,
                duty: 20,
                hibernate_after: 1,
                ticks_per_second: 27.0,
                check_stride: 32,
            },
        }
    }
}

impl Spec {
    /// The session configuration every session opens with; fluxd builds
    /// the same one from a wire `SessionSpec`.
    pub fn session_config(&self) -> SessionConfig {
        SessionConfig {
            users: self.users,
            smc: SmcConfig {
                n_predictions: self.n,
                keep_m: self.m,
                ..Default::default()
            },
            start_time: 0.0,
            warm: self.warm,
        }
    }

    /// The grid configuration (in-process, or under the daemon).
    pub fn grid_config(&self) -> GridConfig {
        GridConfig {
            shards: GRID_SHARDS,
            queue_capacity: QUEUE_CAPACITY,
            threads: GRID_THREADS,
            hibernate_after: self.hibernate_after,
        }
    }

    /// Ticks in a run of `seconds`.
    pub fn ticks(&self, seconds: f64) -> usize {
        ((seconds * self.ticks_per_second).round() as usize).max(1)
    }

    /// Whether session `s` gets a round on tick `t`.
    pub fn active(&self, s: usize, t: usize) -> bool {
        (s + t).is_multiple_of(self.duty)
    }

    /// The longest trace any session needs over `ticks` ticks.
    pub fn trace_len(&self, ticks: usize) -> usize {
        ticks.div_ceil(self.duty)
    }

    /// The sessions the self-check replays solo, each with the rounds it
    /// receives over `ticks` ticks.
    pub fn check_sample(&self, ticks: usize) -> Vec<(usize, usize)> {
        (0..self.sessions)
            .step_by(self.check_stride)
            .map(|s| (s, (0..ticks).filter(|&t| self.active(s, t)).count()))
            .collect()
    }

    /// Tracker seed of session `s` under run seed `seed`.
    pub fn session_seed(&self, seed: u64, s: usize) -> u64 {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (1000 + s as u64)
    }
}
