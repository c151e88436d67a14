//! The one command-line parser of the experiment binaries.
//!
//! `main` calls [`parse`] first, with the table of the binary's own
//! flags. The parser reads the process arguments once, appends the flags
//! every binary shares — `--jobs N` (engine workers, `0` = one per core),
//! `--no-cache`, `--csv`, `--trace-out FILE`, `--metrics` — and checks
//! the whole command line before any work starts. Every value flag takes
//! its value as the next argument or after `=` (`--jobs 4`, `--jobs=4`).
//! An unknown flag, a stray argument, or a missing or malformed value
//! prints one error line and the usage to stderr and exits with status 2.
//!
//! Library code never reads the process arguments: [`crate::engine()`],
//! [`crate::emit_table`] and [`crate::obs_session()`] read [`shared`],
//! which holds what `main` parsed, or the defaults when nothing was
//! parsed (as under a test harness).

use cmam_cdfg::generate::GenParams;
use std::path::PathBuf;
use std::sync::OnceLock;

/// What a flag takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// No value.
    Switch,
    /// A count, `0` allowed.
    Count,
    /// A count above `0`.
    Positive,
    /// A 64-bit integer, decimal or `0x…` hex.
    Seed,
    /// A generator profile name, or `mixed`.
    Profile,
    /// Any text; the string names it in the usage line.
    Text(&'static str),
}

/// One row of a binary's flag table: the flag as typed and its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag(pub &'static str, pub Kind);

/// `--generated N`: generated kernels added to the kernel mix (see
/// [`crate::GenCli`]).
pub const GENERATED: Flag = Flag("--generated", Kind::Count);
/// `--seed S`: the root seed of the generated kernels.
pub const SEED: Flag = Flag("--seed", Kind::Seed);
/// `--profile P`: one generator profile for every generated kernel, or
/// `mixed` to cycle through all of them.
pub const PROFILE: Flag = Flag("--profile", Kind::Profile);

const SHARED_FLAGS: [Flag; 5] = [
    Flag("--jobs", Kind::Count),
    Flag("--no-cache", Kind::Switch),
    Flag("--csv", Kind::Switch),
    Flag("--trace-out", Kind::Text("FILE")),
    Flag("--metrics", Kind::Switch),
];

impl Flag {
    fn usage(&self) -> String {
        let metavar = match self.1 {
            Kind::Switch => return format!("[{}]", self.0),
            Kind::Count | Kind::Positive => "N",
            Kind::Seed => "S",
            Kind::Profile => "P",
            Kind::Text(metavar) => metavar,
        };
        format!("[{} {metavar}]", self.0)
    }

    /// Checks the value given to this flag (`None`: no value given).
    fn check(&self, raw: Option<&str>) -> Result<(), String> {
        let Flag(name, kind) = *self;
        let (needs, ok) = match (kind, raw) {
            (Kind::Switch, None) | (Kind::Text(_), Some(_)) => return Ok(()),
            (Kind::Switch, Some(_)) => return Err(format!("{name} takes no value")),
            (_, None) => return Err(format!("{name} needs a value")),
            (Kind::Count, Some(v)) => ("a count".into(), v.parse::<usize>().is_ok()),
            (Kind::Positive, Some(v)) => (
                "a positive count".into(),
                v.parse::<usize>().is_ok_and(|n| n > 0),
            ),
            (Kind::Seed, Some(v)) => (
                "an integer (decimal or 0x… hex)".into(),
                parse_seed(v).is_some(),
            ),
            (Kind::Profile, Some(v)) => (
                format!("mixed or one of {}", GenParams::PROFILES.join(", ")),
                v == "mixed" || GenParams::profile(v).is_some(),
            ),
        };
        match raw {
            Some(v) if !ok => Err(format!("{name} needs {needs}, got {v:?}")),
            _ => Ok(()),
        }
    }
}

/// Parses `s` as decimal or `0x…`/`0X…` hexadecimal.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// The flags every binary shares, as one process was given them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Shared {
    /// `--jobs N`: engine worker threads; `0` means one per core.
    pub jobs: usize,
    /// `--no-cache`: no on-disk artifact store.
    pub no_cache: bool,
    /// `--csv`: repeat every table as CSV.
    pub csv: bool,
    /// `--trace-out FILE`: where the Chrome trace goes.
    pub trace_out: Option<PathBuf>,
    /// `--metrics`: print the metrics registry on exit.
    pub metrics: bool,
}

static SHARED: OnceLock<Shared> = OnceLock::new();

/// The shared flags `main` parsed, or their defaults when the process
/// never called [`parse`] (a unit test).
pub fn shared() -> Shared {
    SHARED.get().cloned().unwrap_or_default()
}

/// A command line checked against a binary's flag table. When a flag is
/// given more than once, the last one counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    name: &'static str,
    flags: Vec<Flag>,
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// `Some(value)` of the last `name` given (`Some(None)` for a switch).
    fn last(&self, name: &str) -> Option<Option<&str>> {
        let declared = self.flags.iter().any(|f| f.0 == name);
        assert!(declared, "{} has no flag {name} in its table", self.name);
        let mut given = self.given.iter().rev();
        given.find(|g| g.0 == name).map(|g| g.1.as_deref())
    }

    /// Whether the switch `name` was given.
    pub fn on(&self, name: &str) -> bool {
        self.last(name).is_some()
    }

    /// The count given to `name`.
    pub fn count(&self, name: &str) -> Option<usize> {
        self.text(name).and_then(|v| v.parse().ok())
    }

    /// The seed given to `name`.
    pub fn seed(&self, name: &str) -> Option<u64> {
        self.text(name).and_then(parse_seed)
    }

    /// The text (or profile) given to `name`.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.last(name).flatten()
    }

    /// Rejects the command line for a reason the flag table cannot
    /// express (an unknown kernel name, two flags that exclude each
    /// other): the message and the usage on stderr, exit status 2.
    pub fn fail(&self, message: &str) -> ! {
        usage_error(self.name, &self.flags, message)
    }

    fn shared(&self) -> Shared {
        Shared {
            jobs: self.count("--jobs").unwrap_or(0),
            no_cache: self.on("--no-cache"),
            csv: self.on("--csv"),
            trace_out: self.text("--trace-out").map(PathBuf::from),
            metrics: self.on("--metrics"),
        }
    }
}

/// A binary's own flags followed by the shared ones.
fn table(flags: &[Flag]) -> Vec<Flag> {
    flags.iter().chain(&SHARED_FLAGS).copied().collect()
}

fn usage_error(name: &str, flags: &[Flag], message: &str) -> ! {
    let usage: Vec<String> = flags.iter().map(Flag::usage).collect();
    eprintln!("{name}: {message}\nusage: {name} {}", usage.join(" "));
    std::process::exit(2);
}

/// Checks `argv` (without the program name) against `flags` plus the
/// shared flags.
///
/// # Errors
///
/// One line naming the unknown flag, the stray argument, or the flag
/// whose value is missing or malformed.
pub(crate) fn parse_from<I>(name: &'static str, flags: &[Flag], argv: I) -> Result<Args, String>
where
    I: IntoIterator<Item = String>,
{
    let flags = table(flags);
    let mut given = Vec::new();
    let mut argv = argv.into_iter().peekable();
    while let Some(arg) = argv.next() {
        let (key, inline) = match arg.split_once('=') {
            Some((key, value)) if key.starts_with("--") => (key, Some(value.to_owned())),
            _ => (arg.as_str(), None),
        };
        let Some(&flag) = flags.iter().find(|f| f.0 == key) else {
            return Err(if key.starts_with('-') {
                format!("unknown flag {key}")
            } else {
                format!("unexpected argument {arg:?}")
            });
        };
        // A value flag takes the next argument unless that is a flag
        // itself: `--jobs --csv` lacks a count, it does not swallow `--csv`.
        let raw = match (flag.1, inline) {
            (Kind::Switch, inline) | (_, inline @ Some(_)) => inline,
            (_, None) => argv.next_if(|next| !next.starts_with("--")),
        };
        flag.check(raw.as_deref())?;
        given.push((flag.0, raw));
    }
    Ok(Args { name, flags, given })
}

/// Parses the process arguments against `flags` plus the shared flags and
/// records the shared ones for [`shared`]; a usage error exits with
/// status 2.
pub fn parse(name: &'static str, flags: &[Flag]) -> Args {
    let argv = std::env::args_os().skip(1);
    match parse_from(name, flags, argv.map(|a| a.to_string_lossy().into_owned())) {
        Ok(args) => {
            let first = SHARED.set(args.shared()).is_ok();
            assert!(first, "cli::parse runs once, first thing in main");
            args
        }
        Err(message) => usage_error(name, &table(flags), &message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Kind::*;

    const OWN: [Flag; 5] = [
        Flag("--verify", Switch),
        Flag("--lanes", Positive),
        Flag("--input-seed", Seed),
        Flag("--kernel", Text("NAME")),
        PROFILE,
    ];

    /// Parses a command line split at whitespace.
    fn parse(line: &str) -> Result<Args, String> {
        parse_from("t", &OWN, line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn nothing_given_means_every_default() {
        let args = parse("").unwrap();
        assert!(!args.on("--verify"));
        assert_eq!((args.count("--lanes"), args.text("--kernel")), (None, None));
        assert_eq!(args.shared(), Shared::default());
        assert_eq!(shared(), Shared::default(), "nothing parsed in a test");
    }

    #[test]
    fn both_spellings_repeats_and_switches() {
        let line = "--jobs=3 --trace-out a=b.json --input-seed=0X10 --csv --jobs 0 \
                    --kernel - --lanes=2 --profile deep";
        let args = parse(line).unwrap();
        let want = Shared {
            csv: true,
            trace_out: Some(PathBuf::from("a=b.json")),
            ..Shared::default()
        };
        assert_eq!(args.shared(), want, "the last --jobs counts");
        assert_eq!(args.seed("--input-seed"), Some(16));
        assert_eq!(args.count("--lanes"), Some(2));
        assert_eq!(args.text("--kernel"), Some("-"), "a lone dash is a value");
        assert_eq!(args.text("--profile"), Some("deep"));
        assert!(!args.on("--verify") && parse("--verify").unwrap().on("--verify"));
        assert!(parse("--profile mixed --trace-out=x=y").is_ok());
    }

    #[test]
    fn every_usage_error_is_one_line() {
        let seed = "--input-seed needs an integer (decimal or 0x… hex), got \"0xz\"";
        for (line, want) in [
            ("--bogus", "unknown flag --bogus"),
            ("-x", "unknown flag -x"),
            ("--bogus=1", "unknown flag --bogus"),
            ("stray", "unexpected argument \"stray\""),
            ("--jobs", "--jobs needs a value"),
            ("--jobs --csv", "--jobs needs a value"),
            ("--jobs=", "--jobs needs a count, got \"\""),
            ("--jobs -1", "--jobs needs a count, got \"-1\""),
            ("--trace-out", "--trace-out needs a value"),
            ("--lanes=0", "--lanes needs a positive count, got \"0\""),
            ("--input-seed 0xz", seed),
            ("--verify=yes", "--verify takes no value"),
            ("--csv=", "--csv takes no value"),
        ] {
            assert_eq!(parse(line).unwrap_err(), want, "{line}");
        }
        let err = parse("--profile nope").unwrap_err();
        assert!(err.starts_with("--profile needs mixed or one of default, "));
    }

    #[test]
    fn usage_lists_own_flags_then_shared_ones() {
        let usage: Vec<String> = table(&OWN).iter().map(Flag::usage).collect();
        assert_eq!(
            usage.join(" "),
            "[--verify] [--lanes N] [--input-seed S] [--kernel NAME] [--profile P] \
             [--jobs N] [--no-cache] [--csv] [--trace-out FILE] [--metrics]"
        );
    }

    #[test]
    #[should_panic(expected = "t has no flag --lane in its table")]
    fn reading_an_undeclared_flag_is_a_bug() {
        parse("").unwrap().count("--lane");
    }
}
