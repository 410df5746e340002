//! `mobicast`'s command line, parsed once: a command, then flags in any
//! order. A flag the command does not read is ignored; an unknown flag, a
//! bad value or an unknown command is a [`UsageError`].

use mobicast_core::experiments::{Experiment, Settings, REGISTRY};

use crate::stages::WORKLOADS;

pub const USAGE: &str = "\
usage: mobicast <command> [flags]

commands:
  <experiment>        run one experiment, print its table, write results/<id>.json
  all                 every experiment in order, plus results/exp_all_output.txt
  stress --routers N [--receivers M]
                      one metro-grid run of at least N routers (N >= 4)
  explain [PKT] [--list]
                      the causal journey of one packet of the handoff run
  report              the observability dashboard, written to results/report-*
  stages [--seed N] [--workload NAME]
                      where handler time goes on the benchmark workloads
  mutants [LEDGER]    re-plant every defect of the mutation ledger (mutants.txt)

flags:
  -q, --quick         the reduced sweeps
  --workers N         sweep worker threads (default: available parallelism, at most 16)
  --serial            --workers 1
  --approach ID       pin the policy sweeps, and explain's run, to one delivery policy

Experiments, campaigns and `all` exit 1 when a run reports an oracle
violation, a reconvergence-SLO miss or a protected-flow floor miss.";

/// A command line `mobicast` cannot run: usage goes to stderr, exit 2.
#[derive(Debug)]
pub struct UsageError(pub String);

/// What `mobicast` was asked to do.
#[derive(Debug)]
pub enum Command {
    Experiment(Experiment),
    All,
    Metro { routers: usize, receivers: usize },
    Explain { pkt: Option<String>, list: bool },
    Report,
    Stages { seed: u64, workload: Option<String> },
    Mutants { ledger: String },
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, UsageError> {
    value
        .parse()
        .map_err(|_| UsageError(format!("{flag} needs a number, not {value:?}")))
}

fn at_least(flag: &str, value: &str, min: usize) -> Result<usize, UsageError> {
    let n = number(flag, value)?;
    if n < min {
        return Err(UsageError(format!("{flag} needs a count >= {min}")));
    }
    Ok(n)
}

/// Parse the arguments after the program name.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<(Command, Settings), UsageError> {
    let mut args = args.into_iter();
    let name = args.next().filter(|name| !name.starts_with('-'));
    let name = name.ok_or_else(|| UsageError("no command".into()))?;
    let mut settings = Settings::new(false);
    let (mut routers, mut receivers, mut seed, mut workload) = (None, None, None, None);
    let mut list = false;
    let mut positional = Vec::new();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| UsageError(format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "-q" | "--quick" => settings.quick = true,
            "--serial" => settings.workers = 1,
            "--workers" => settings.workers = at_least(&arg, &value()?, 1)?,
            "--approach" => {
                let id = value()?;
                let policy = id.parse().map_err(|e| UsageError(format!("{e}")))?;
                settings.approach = Some(policy);
            }
            "--routers" => routers = Some(at_least(&arg, &value()?, 4)?),
            "--receivers" => receivers = Some(number(&arg, &value()?)?),
            "--seed" => seed = Some(number(&arg, &value()?)?),
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    let known = WORKLOADS.join(", ");
                    return Err(UsageError(format!("unknown workload {name:?} ({known})")));
                }
                workload = Some(name);
            }
            "--list" => list = true,
            flag if flag.starts_with('-') => {
                return Err(UsageError(format!("unknown flag {flag}")));
            }
            _ => positional.push(arg),
        }
    }
    let takes_positional = matches!(name.as_str(), "explain" | "mutants");
    if positional.len() > usize::from(takes_positional) {
        return Err(UsageError(format!(
            "{name}: unexpected argument {:?}",
            positional[usize::from(takes_positional)]
        )));
    }
    let command = match (name.as_str(), routers) {
        ("all", _) => Command::All,
        ("stress", Some(routers)) => Command::Metro {
            routers,
            receivers: receivers.unwrap_or(200),
        },
        ("explain", _) => Command::Explain {
            pkt: positional.pop(),
            list,
        },
        ("report", _) => Command::Report,
        ("stages", _) => Command::Stages {
            seed: seed.unwrap_or(11),
            workload,
        },
        ("mutants", _) => Command::Mutants {
            ledger: positional.pop().unwrap_or_else(|| "mutants.txt".into()),
        },
        (id, _) => match REGISTRY.iter().find(|(known, _)| *known == id) {
            Some(&experiment) => Command::Experiment(experiment),
            None => {
                let ids: Vec<&str> = REGISTRY.iter().map(|(id, _)| *id).collect();
                let ids = ids.join(", ");
                return Err(UsageError(format!(
                    "unknown command {id:?} (experiments: {ids})"
                )));
            }
        },
    };
    Ok((command, settings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicast_core::Policy;

    fn cli(line: &str) -> Result<(Command, Settings), UsageError> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn every_registry_id_is_a_command() {
        for (id, _) in REGISTRY {
            let (command, _) = cli(id).unwrap();
            assert!(
                matches!(command, Command::Experiment((parsed, _)) if parsed == id),
                "{id}: {command:?}"
            );
        }
    }

    #[test]
    fn settings_travel_as_a_value() {
        let (_, s) = cli("chaos --quick --approach local --workers 3").unwrap();
        assert_eq!(
            (s.quick, s.workers, s.policies()),
            (true, 3, vec![Policy::LOCAL])
        );
        let (_, s) = cli("fault_sweep -q --serial").unwrap();
        assert_eq!((s.quick, s.workers, s.approach), (true, 1, None));
        assert_eq!(s.policies(), Policy::all());
        assert!(!cli("all").unwrap().1.quick);
    }

    #[test]
    fn subcommands_read_their_flags() {
        for (line, want) in [
            (
                "stress --routers 1000 --receivers 400",
                "Metro { routers: 1000, receivers: 400 }",
            ),
            (
                "explain 0x4 --approach local",
                r#"Explain { pkt: Some("0x4"), list: false }"#,
            ),
            ("explain --list", "Explain { pkt: None, list: true }"),
            (
                "stages --seed 5 --workload roam_tunnel",
                r#"Stages { seed: 5, workload: Some("roam_tunnel") }"#,
            ),
            ("mutants", r#"Mutants { ledger: "mutants.txt" }"#),
            ("report", "Report"),
        ] {
            assert_eq!(format!("{:?}", cli(line).unwrap().0), want, "{line}");
        }
        let (stress, _) = cli("stress --receivers 400").unwrap();
        assert!(matches!(stress, Command::Experiment(("stress", _))));
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        for (line, want) in [
            ("", "no command"),
            ("--quick all", "no command"),
            ("fig9", "unknown command \"fig9\""),
            ("chaos --approach nope", "unknown delivery policy \"nope\""),
            ("all --workers", "--workers needs a value"),
            ("all --workers 0", "--workers needs a count >= 1"),
            ("all --workers many", "--workers needs a number"),
            ("stress --routers 3", "--routers needs a count >= 4"),
            ("stages --seed 1.5", "--seed needs a number"),
            ("stages --workload nope", "unknown workload \"nope\""),
            ("report --check", "unknown flag --check"),
            ("fig1 --fast", "unknown flag --fast"),
            ("fig1 extra", "fig1: unexpected argument \"extra\""),
            ("explain 1 2", "explain: unexpected argument \"2\""),
        ] {
            let error = cli(line).expect_err(line).0;
            assert!(error.contains(want), "{line}: {error}");
        }
    }
}
