//! The `fluxd` binary: serve a synthetic sensor field over TCP.
//!
//! Builds the workspace's standard bench scenario (a perturbed 12×12
//! node grid on a 30×30 field, communication radius 4) and serves it
//! until killed. Clients open sessions and stream observation rounds
//! through the wire protocol; see README.md "Serving" for a loopback
//! quickstart.

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_engine::{Engine, GridConfig};
use fluxprint_fluxd::{server, ServerConfig};
use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::Rect;
use fluxprint_netsim::NetworkBuilder;

struct Args {
    addr: String,
    shards: usize,
    queue_capacity: usize,
    credits: u32,
    hibernate_after: u64,
    seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:7700".to_string(),
            shards: 4,
            queue_capacity: 64,
            credits: 0,
            hibernate_after: 0,
            seed: 0x9A1D,
        }
    }
}

const USAGE: &str = "usage: fluxd [--addr HOST:PORT] [--shards N] [--queue-capacity N] \
[--credits N] [--hibernate-after N] [--seed N]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--shards" => args.shards = parse(&value("--shards")?, "--shards")?,
            "--queue-capacity" => {
                args.queue_capacity = parse(&value("--queue-capacity")?, "--queue-capacity")?;
            }
            "--credits" => args.credits = parse(&value("--credits")?, "--credits")?,
            "--hibernate-after" => {
                args.hibernate_after = parse(&value("--hibernate-after")?, "--hibernate-after")?;
            }
            "--seed" => args.seed = parse(&value("--seed")?, "--seed")?,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(raw: &str, name: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("bad value `{raw}` for {name}"))
}

fn run(args: &Args) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let field = Rect::square(30.0).map_err(|e| e.to_string())?;
    let network = NetworkBuilder::new()
        .field(field)
        .perturbed_grid(12, 12, 0.3)
        .radius(4.0)
        .build(&mut rng)
        .map_err(|e| e.to_string())?;
    let engine = Engine::for_network(&network, FluxModel::default()).map_err(|e| e.to_string())?;
    let config = ServerConfig {
        addr: args.addr.clone(),
        grid: GridConfig {
            shards: args.shards,
            queue_capacity: args.queue_capacity,
            hibernate_after: args.hibernate_after,
            ..GridConfig::default()
        },
        credits: args.credits,
        drain_threshold: 0,
    };
    let handle = server::spawn(engine, &config).map_err(|e| e.to_string())?;
    // fluxlint: allow(no-println) — the daemon binary owns its terminal; startup address is operator-facing
    println!(
        "fluxd v{} serving {} nodes on {} ({} shards, queue {})",
        fluxprint_fluxd::VERSION,
        network.len(),
        handle.addr(),
        args.shards,
        args.queue_capacity,
    );
    handle.wait().map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            // fluxlint: allow(no-println) — CLI usage/diagnostic surface
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            // fluxlint: allow(no-println) — fatal daemon error surfaces to the operator
            eprintln!("fluxd: {message}");
            ExitCode::FAILURE
        }
    }
}
