//! Seeded input generation: the network, sniffer sets, users on
//! random-waypoint paths, and the observation rounds they produce.
//! Nothing here is timed.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_geometry::{Point2, Rect};
use fluxprint_mobility::{RandomWaypoint, Trajectory};
use fluxprint_netsim::{Network, NetworkBuilder, NoiseModel, ObservationRound, Sniffer};

use crate::workload::{Field, Spec};

/// Users walk at up to this speed per round, below the tracker's
/// `v_max` of 5 so the motion prior always covers the true move.
const USER_VMAX: f64 = 3.0;
/// Every user's stretch factor (data units per node per window).
const USER_STRETCH: f64 = 2.0;

/// One session's observation trace with its ground truth.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Observation rounds at times 1, 2, 3, …
    pub rounds: Vec<ObservationRound>,
    /// True user positions at each round's time.
    pub truths: Vec<Vec<Point2>>,
}

/// Everything a run consumes, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// The network every session tracks over.
    pub network: Network,
    /// Distinct traces; session `s` replays `traces[s % traces.len()]`.
    pub traces: Vec<Trace>,
}

impl Inputs {
    /// Session `s`'s trace.
    pub fn trace(&self, s: usize) -> &Trace {
        &self.traces[s % self.traces.len()]
    }
}

/// Derives an independent stream for `purpose` from the run seed.
fn rng_for(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0xD134_2543_DE82_EF95) ^ purpose)
}

/// Generates a workload's inputs: `spec.traces` traces of `rounds`
/// rounds each over one seeded network.
///
/// # Errors
///
/// Any network, sniffer or mobility construction failure.
pub fn generate(spec: &Spec, seed: u64, rounds: usize) -> Result<Inputs, String> {
    let (cells, radius) = match spec.field {
        Field::Paper => (30, 2.4),
        Field::Small => (12, 4.0),
    };
    let network = NetworkBuilder::new()
        .field(Rect::square(30.0).map_err(|e| format!("field: {e}"))?)
        .perturbed_grid(cells, cells, 0.3)
        .radius(radius)
        .require_connected(true)
        .build(&mut rng_for(seed, 0xF1E1D))
        .map_err(|e| format!("network: {e}"))?;
    let traces = (0..spec.traces)
        .map(|i| trace(spec, &network, rounds, &mut rng_for(seed, 1 + i as u64)))
        .collect::<Result<_, _>>()?;
    Ok(Inputs { network, traces })
}

fn trace(spec: &Spec, net: &Network, rounds: usize, rng: &mut StdRng) -> Result<Trace, String> {
    let sniffer =
        Sniffer::random_count(net, spec.sniffers, rng).map_err(|e| format!("sniffer: {e}"))?;
    let walk = RandomWaypoint::new(USER_VMAX, 0.0).map_err(|e| format!("mobility: {e}"))?;
    let paths: Vec<Trajectory> = (0..spec.users)
        .map(|_| walk.generate(net.boundary(), 0.0, rounds as f64 + 1.0, rng))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("mobility: {e}"))?;
    let noise = if spec.noise > 0.0 {
        NoiseModel::RelativeGaussian { sigma: spec.noise }
    } else {
        NoiseModel::None
    };
    let mut out = Trace {
        rounds: Vec::with_capacity(rounds),
        truths: Vec::with_capacity(rounds),
    };
    for i in 1..=rounds {
        let t = i as f64;
        let truth: Vec<Point2> = paths.iter().map(|p| p.position_at(t)).collect();
        let users: Vec<(Point2, f64)> = truth.iter().map(|&p| (p, USER_STRETCH)).collect();
        let flux = net
            .simulate_flux(&users, rng)
            .map_err(|e| format!("flux: {e}"))?;
        out.rounds
            .push(sniffer.observe_round_smoothed(t, net, &flux, noise, rng));
        out.truths.push(truth);
    }
    Ok(out)
}
