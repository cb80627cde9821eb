//! `repro` — regenerate every table and figure of the paper's evaluation
//! (DESIGN.md's experiment index maps paper tables and figures to modes).
//!
//! `cargo run --release -p vcsql-bench --bin repro -- <mode> [flags]`
//!
//! [`MODES`] and [`FLAGS`] *are* the command line: a mode or flag is named
//! in exactly one row, and the usage text (`repro --help`), every usage
//! error, the `all` list and the dispatch are derived from the rows. The
//! run functions the rows point at live in one module per experiment
//! family.

mod ablations;
mod distributed;
mod faults;
mod local;

use crate::Loaded;
use vcsql_bsp::{EngineConfig, PartitionStrategy};
use vcsql_relation::Database;
use vcsql_workload::{tpcds, tpch, BenchQuery};

/// Data-generation seed of every experiment, and `--seed`'s default.
const SEED: u64 = 42;

/// A benchmark suite: its data generator and query set.
struct Suite {
    name: &'static str,
    title: &'static str,
    generate: fn(f64, u64) -> Database,
    queries: fn() -> Vec<BenchQuery>,
}

impl Suite {
    fn load(&self, sf: f64) -> Loaded {
        Loaded::new((self.generate)(sf, SEED))
    }
}

static TPCH: Suite =
    Suite { name: "tpch", title: "TPC-H", generate: tpch::generate, queries: tpch::queries };
static TPCDS: Suite =
    Suite { name: "tpcds", title: "TPC-DS", generate: tpcds::generate, queries: tpcds::queries };
static SUITES: [&Suite; 2] = [&TPCH, &TPCDS];

/// Validated flag values; defaults where a flag was not given (`Option`
/// where an experiment or a constraint asks whether it was).
pub struct Args {
    sfs: Vec<f64>,
    strategies: Option<Vec<PartitionStrategy>>,
    threads: Option<usize>,
    checkpoint_every: u64,
    kill: (u32, u64),
    seed: u64,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            sfs: vec![0.01, 0.02, 0.05],
            strategies: None,
            threads: None,
            checkpoint_every: 2,
            kill: (1, 3),
            seed: SEED,
        }
    }
}

impl Args {
    /// The scale factor of the single-SF modes: the last one given.
    fn sf(&self) -> f64 {
        self.sfs[self.sfs.len() - 1]
    }

    /// Engine configuration of the local TAG side.
    fn engine(&self) -> EngineConfig {
        self.threads.map(EngineConfig::with_threads).unwrap_or_default()
    }

    fn strategies(&self) -> &[PartitionStrategy] {
        self.strategies.as_deref().unwrap_or(&PartitionStrategy::ALL)
    }

    fn wants_workload(&self) -> bool {
        self.strategies().iter().any(|s| matches!(s, PartitionStrategy::Workload(_)))
    }
}

/// One value flag: how its value is validated into [`Args`] and how the
/// usage text describes it.
pub struct Flag {
    pub name: &'static str,
    /// Value placeholder in the usage text.
    metavar: &'static str,
    /// Collective noun for the modes that take it, used by the "only applies
    /// to" error where a backticked list of them would not read.
    group: Option<&'static str>,
    /// Validate `raw` (the flag's own name comes first, for the message).
    set: fn(&mut Args, &str, &str) -> Result<(), String>,
    help: &'static str,
}

fn bad(flag: &str, raw: &str, want: &str) -> String {
    format!("bad {flag} value `{raw}` (want {want})")
}

fn positive_f64(flag: &str, raw: &str, want: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(bad(flag, raw, want)),
    }
}

/// Zero, negative and non-numeric counts are usage errors, never panics.
fn positive_int(flag: &str, raw: &str) -> Result<usize, String> {
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(bad(flag, raw, "a positive integer")),
    }
}

static SF: Flag = Flag {
    name: "--sf",
    metavar: "a,b,c",
    group: Some("the data-generating modes"),
    set: |a, f, raw| {
        let sfs = raw.split(',').map(|x| positive_f64(f, x, "a positive number"));
        sfs.collect::<Result<_, _>>().map(|sfs| a.sfs = sfs)
    },
    help: "comma-separated positive scale factors\n\
           (default 0.01,0.02,0.05; single-SF modes use the last)",
};
static PARTITIONING: Flag = Flag {
    name: "--partitioning",
    metavar: "s,...",
    group: None,
    set: |a, f, raw| {
        let parse = |s| {
            PartitionStrategy::parse(s)
                .ok_or_else(|| bad(f, s, "hash, colocate, refined or workload"))
        };
        raw.split(',').map(parse).collect::<Result<_, _>>().map(|s| a.strategies = Some(s))
    },
    help: "TAG placement strategies for the per-strategy table\n\
           (any of hash, colocate, refined, workload; default\n\
           hash,colocate,refined). `workload` first calibrates\n\
           per-edge-label traffic with a hash-placed run of the\n\
           profile workload, then re-partitions for it",
};
static THREADS: Flag = Flag {
    name: "--threads",
    metavar: "n",
    group: Some("the per-query runtime modes"),
    set: |a, f, raw| positive_int(f, raw).map(|n| a.threads = Some(n)),
    help: "engine worker threads for the TAG side (default: the\n\
           machine's parallelism, capped at 16)",
};
static CHECKPOINT_EVERY: Flag = Flag {
    name: "--checkpoint-every",
    metavar: "k",
    group: None,
    set: |a, f, raw| positive_int(f, raw).map(|k| a.checkpoint_every = k as u64),
    help: "the checkpoint interval under test, in supersteps\n\
           (default 2; must be positive — the sweep adds interval\n\
           0, checkpointing disabled, as its own arm)",
};
static KILL: Flag = Flag {
    name: "--kill",
    metavar: "m@r",
    group: None,
    set: |a, f, raw| {
        let halves =
            raw.split_once('@').and_then(|(m, r)| Some((m.parse().ok()?, r.parse().ok()?)));
        halves.map(|kill| a.kill = kill).ok_or_else(|| bad(f, raw, "machine@superstep, e.g. 2@3"))
    },
    help: "crash machine m just before superstep r of every query\n\
           (default 1@3)",
};
static SEED_FLAG: Flag = Flag {
    name: "--seed",
    metavar: "n",
    group: None,
    set: |a, f, raw| {
        raw.parse().map(|n| a.seed = n).map_err(|_| bad(f, raw, "an unsigned integer"))
    },
    help: "seed for the two extra transient link-drop faults of\n\
           each plan (default 42)",
};

/// Every value flag, in usage order.
pub static FLAGS: [&Flag; 6] = [&SF, &PARTITIONING, &THREADS, &CHECKPOINT_EVERY, &KILL, &SEED_FLAG];

/// One experiment: the flags it reads (any other flag is a usage error
/// rather than silently ignored), whether `all` runs it, and its run
/// function.
pub struct Mode {
    pub name: &'static str,
    summary: &'static str,
    pub flags: &'static [&'static Flag],
    pub in_all: bool,
    run: fn(&Args),
}

impl Mode {
    pub fn accepts(&self, flag: &Flag) -> bool {
        self.flags.iter().any(|f| f.name == flag.name)
    }
}

/// Flags of the modes that time every query on all four systems.
static TIMED: [&Flag; 2] = [&SF, &THREADS];

/// The default mode: every `in_all` row in table order. Its flags are the
/// ones that steer those rows' experiments.
const ALL: Mode = Mode {
    name: "all",
    summary: "everything above except",
    flags: &[&SF, &PARTITIONING, &THREADS],
    in_all: false,
    run: |a| MODES.iter().filter(|m| m.in_all).for_each(|m| (m.run)(a)),
};

/// Every mode, in usage (and `all`) order.
pub static MODES: [Mode; 11] = [
    Mode {
        name: "loading",
        summary: "Tables 1-2: data loading times",
        flags: &[&SF],
        in_all: true,
        run: local::loading,
    },
    Mode {
        name: "sizes",
        summary: "Fig 14 / Table 15: loaded data sizes",
        flags: &[&SF],
        in_all: true,
        run: local::sizes,
    },
    Mode {
        name: "tpch",
        summary: "Fig 13(a) + Tables 8-10/14: TPC-H runtimes; at the last SF\n\
         also Tables 3-4 (LA/correlated, GA/scalar), from the same\n\
         timings",
        flags: &TIMED,
        in_all: true,
        run: local::tpch,
    },
    Mode {
        name: "tpcds",
        summary: "Fig 13(b) + Tables 11-13/14: TPC-DS runtimes; at the last\n\
         SF also Table 5 (outperform/competitive/worse counts), Table 6\n\
         (per-class speedups) and Fig 15 (by aggregation class), from\n\
         the same timings",
        flags: &TIMED,
        in_all: true,
        run: local::tpcds,
    },
    Mode {
        name: "memory",
        summary: "Table 7: working-set bytes per engine",
        flags: &[&SF],
        in_all: true,
        run: local::memory,
    },
    Mode {
        name: "distributed",
        summary: "Fig 16 + Tables 16-17: modelled runtime + network traffic per\n\
         placement strategy",
        flags: &[&SF, &PARTITIONING],
        in_all: true,
        run: distributed::run,
    },
    Mode {
        name: "cost-model",
        summary: "§4.1.2 ablation: two-way join messages vs bounds",
        flags: &[],
        in_all: true,
        run: ablations::cost_model,
    },
    Mode {
        name: "triangle-theta",
        summary: "§6.1.2 ablation: heavy/light θ sweep",
        flags: &[],
        in_all: true,
        run: ablations::triangle_theta,
    },
    Mode {
        name: "reshuffle",
        summary: "§5.2.2 ablation: reshuffle bytes vs join-chain length",
        flags: &[&SF],
        in_all: true,
        run: ablations::reshuffle,
    },
    Mode {
        name: "faults",
        summary: "fault-tolerance sweep: one machine crash plus two seeded link\n\
         drops into every TPC-H/TPC-DS query at each checkpoint\n\
         interval in {0,1,2,4,8} ∪ {--checkpoint-every}, every result\n\
         bag asserted identical to fault-free and the sweep's\n\
         invariants checked (a violation exits 1)",
        flags: &[&SF, &CHECKPOINT_EVERY, &KILL, &SEED_FLAG],
        in_all: false,
        run: faults::run,
    },
    ALL,
];

/// Names of the modes whose row lists `flag`.
fn takers(flag: &Flag) -> Vec<&'static str> {
    MODES.iter().filter(|m| m.accepts(flag)).map(|m| m.name).collect()
}

/// `words` joined by spaces into lines of at most `width` columns.
fn wrap(words: impl Iterator<Item = String>, width: usize) -> Vec<String> {
    let mut lines = vec![String::new()];
    for word in words {
        let line = lines.last_mut().expect("starts with one line");
        if line.is_empty() {
            *line = word;
        } else if line.len() + 1 + word.len() > width {
            lines.push(word);
        } else {
            *line = format!("{line} {word}");
        }
    }
    lines
}

/// The usage text, derived from the tables.
pub fn usage() -> String {
    let synopsis = std::iter::once("<mode>".to_string())
        .chain(FLAGS.iter().map(|f| format!("[{} {}]", f.name, f.metavar)));
    let mut out = format!("usage: repro {}\n", wrap(synopsis, 65).join("\n             "));
    let entry = |out: &mut String, head: &str, width: usize, text: &str| {
        for (i, line) in text.lines().enumerate() {
            let head = if i == 0 { head } else { "" };
            out.push_str(&format!("  {head:<width$}{line}\n"));
        }
    };
    out.push_str(&format!("\nmodes (default: {}):\n", ALL.name));
    for m in &MODES {
        if m.name == ALL.name {
            let left_out: Vec<&str> =
                MODES.iter().filter(|m| !m.in_all && m.name != ALL.name).map(|m| m.name).collect();
            entry(&mut out, m.name, 16, &format!("{} {}", m.summary, left_out.join(" and ")));
        } else {
            entry(&mut out, m.name, 16, m.summary);
        }
    }
    out.push_str("\nflags (each a usage error outside the [modes] that read it):\n");
    for f in FLAGS {
        let modes = wrap(takers(f).iter().map(|m| format!("{m},")), 54).join("\n ");
        let text = format!("{}\n[{}]", f.help, modes.trim_end_matches(','));
        entry(&mut out, &format!("{} {}", f.name, f.metavar), 23, &text);
    }
    out
}

/// The error for `flag` on a mode that does not list it, naming the modes
/// that do.
fn only_applies_to(flag: &Flag) -> String {
    let takers = takers(flag);
    if let Some(group) = flag.group {
        return format!("{} only applies to {group} ({})", flag.name, takers.join(", "));
    }
    let named: Vec<String> =
        takers.iter().filter(|&&m| m != ALL.name).map(|m| format!("`{m}`")).collect();
    let list = if named.len() < takers.len() {
        format!("{} (or `{}`)", named.join(", "), ALL.name)
    } else {
        named.join(" and ")
    };
    let noun = if named.len() == 1 { "mode" } else { "modes" };
    format!("{} only applies to the {list} {noun}", flag.name)
}

/// Parse a command line into the mode to run and its validated arguments;
/// `Ok(None)` is a request for the usage text. A flag is checked against
/// the mode's row before its value is looked at.
pub fn parse(argv: &[String]) -> Result<Option<(&'static Mode, Args)>, String> {
    let mut mode_name: Option<&str> = None;
    let mut given: Vec<(&Flag, &str)> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        } else if arg.starts_with('-') {
            let flag = FLAGS
                .iter()
                .find(|f| f.name == arg)
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            let raw = it.next().ok_or_else(|| format!("{} needs a value", flag.name))?;
            given.push((flag, raw));
        } else if mode_name.replace(arg).is_some() {
            return Err(format!("unexpected extra argument `{arg}`"));
        }
    }
    let name = mode_name.unwrap_or(ALL.name);
    let mode =
        MODES.iter().find(|m| m.name == name).ok_or_else(|| format!("unknown mode `{name}`"))?;
    let mut args = Args::default();
    for (flag, raw) in given {
        if !mode.accepts(flag) {
            return Err(only_applies_to(flag));
        }
        (flag.set)(&mut args, flag.name, raw)?;
    }
    Ok(Some((mode, args)))
}

/// The binary's entry point: usage errors print the message plus the usage
/// text and exit with status 2.
pub fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(None) => crate::emit(format_args!("{}", usage())),
        Ok(Some((mode, args))) => (mode.run)(&args),
        Err(msg) => {
            eprint!("repro: {msg}\n\n{}", usage());
            std::process::exit(2);
        }
    }
}
