//! Tripwires as data: each row of [`TRIPWIRES`] names code that a
//! simplification took out, or a second copy of something the design keeps
//! once, and where it must not come back. `the_tree_trips_no_wire` walks
//! the repo once and fails naming every line in a row's scope that holds
//! one of its needles; `every_row_flags_its_sample` shows that each row
//! catches the line it was written against. A new tripwire is a row here
//! plus its sample; DESIGN.md names the rows that guard its rules.
//!
//! A needle is a literal string: a regex alternation is several needles. A
//! whole-word needle matches only where none of its word-character edges
//! (letter, digit, `_`) touches another word character, so `MnOutput`
//! reads as `grep -w MnOutput` and `.hello_period` as `\.hello_period\b`.
//! A path is a file or a directory from the repo root; a directory is read
//! for its `*.rs` files unless the grep reads every file. The walk skips
//! `target/` and `.git/` at any depth, and this file, which holds every
//! needle.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// One search: any of `needles` on a line of a file under `paths` that
/// `except` does not name is a finding.
struct Grep {
    needles: &'static [&'static str],
    /// Files and directories, from the repo root.
    paths: &'static [&'static str],
    /// Files under `paths` that may hold a needle, from the repo root.
    except: &'static [&'static str],
    whole_word: bool,
    /// Read every file under a directory path, not only `*.rs`.
    every_file: bool,
}

/// A `*.rs` search over `paths`, with no exception.
const fn grep(needles: &'static [&'static str], paths: &'static [&'static str]) -> Grep {
    Grep {
        needles,
        paths,
        except: &[],
        whole_word: false,
        every_file: false,
    }
}

/// A rule and the searches that guard it.
struct Tripwire {
    name: &'static str,
    greps: &'static [Grep],
    /// The rule, and where the design states it.
    why: &'static str,
    /// The PR that set the tripwire.
    pr: u32,
    /// A line the tripwire must flag.
    sample: &'static str,
}

const THIS_FILE: &str = "tests/tripwires.rs";
const CODE: &[&str] = &["crates", "src", "tests", "examples"];
const CODE_AND_BENCHMARK: &[&str] = &["crates", "src", "tests", "examples", "benchmark"];
const LIBRARY: &[&str] = &[
    "crates/sim/src",
    "crates/net/src",
    "crates/ipv6/src",
    "crates/mld/src",
    "crates/pimdm/src",
    "crates/mipv6/src",
    "crates/core/src",
];

const TRIPWIRES: &[Tripwire] = &[
    Tripwire {
        name: "One clock reader",
        greps: &[Grep {
            except: &["crates/sim/src/profile.rs"],
            ..grep(&["Instant::now", "SystemTime"], LIBRARY)
        }],
        why: "The library reads the clock in sim::profile only: anything timed elsewhere \
              would be a wall-clock number on its way into a deterministic output. The repo \
              benchmark is the perf ledger.",
        pr: 25,
        sample: "let t = Instant::now();",
    },
    Tripwire {
        name: "One run pipeline",
        greps: &[Grep {
            except: &["crates/core/src/run.rs", "crates/core/src/oracle.rs"],
            ..grep(
                &["Oracle::attach(", "FinalizeParams {"],
                &["crates/core/src", "tests"],
            )
        }],
        why: "A run is assembled and judged in core::run only (DESIGN.md, \"Run assembly\"): \
              a second Oracle::attach or hand-written FinalizeParams is a copy of the \
              pipeline growing back.",
        pr: 22,
        sample: "let oracle = Oracle::attach(&mut world, &params);",
    },
    Tripwire {
        name: "One journal reader",
        greps: &[Grep {
            except: &["crates/core/src/recorder.rs"],
            ..grep(
                &[
                    "parent_pos(",
                    "Parent::",
                    "link_emissions",
                    "const CHAIN_GUARD",
                ],
                &["crates/core/src"],
            )
        }],
        why: "The journal's layout (parent positions, the chain guard, which rows it still \
              holds) is known in core::recorder only (DESIGN.md, \"Recorder: the causal \
              ground truth\"): readers ask what was settled as the run went \
              (Journal::loops / link_usage, Deliveries::with_settled, \
              Recorder::latest_emission / sent_in / copies).",
        pr: 23,
        sample: "let up = journal.parent_pos(row);",
    },
    Tripwire {
        name: "No reader of retired rows",
        greps: &[
            Grep {
                except: &["crates/core/src/recorder.rs", "crates/core/src/explain.rs"],
                ..grep(
                    &[
                        "data_events.iter()",
                        ".by_tag(",
                        "journal.get(",
                        "data_events.get(",
                        "latest_emissions",
                    ],
                    &["crates/core/src"],
                )
            },
            Grep {
                except: &["crates/core/src/recorder.rs", "crates/core/src/builder.rs"],
                ..grep(&["JOURNAL_HORIZON"], &["crates"])
            },
        ],
        why: "Rows retire: nothing but the explainer, which is handed a journal whose \
              horizon was lifted, may look one up or pass over them, and the horizon is \
              named where it is defined and where build() sets it.",
        pr: 24,
        sample: "for row in rec.data_events.iter() {",
    },
    Tripwire {
        name: "No process-global run settings",
        greps: &[
            grep(
                &[
                    "set_approach_override",
                    "approach_override",
                    "set_worker_override",
                    "with_workers",
                    "default_workers",
                    "MOBICAST_WORKERS",
                ],
                &["crates", "tests", "examples"],
            ),
            Grep {
                except: &["crates/core/src/strategy.rs"],
                ..grep(&["Policy::active("], &["crates", "tests", "examples"])
            },
        ],
        why: "Run settings travel as a value (experiments::Settings, DESIGN.md \"Parallel \
              execution & determinism\"): no process-wide policy pin or worker count for a \
              sweep to read behind its caller's back. `Policy::active()` is only an alias \
              of `Policy::all()`, kept for the frozen benchmark.",
        pr: 28,
        sample: "let workers = sweep::default_workers();",
    },
    Tripwire {
        name: "One tracer",
        greps: &[grep(
            &[
                "TraceSink",
                "AttrValue",
                "StdoutSink",
                "CapturingTracer",
                ".tracer(",
            ],
            &["crates", "tests", "examples"],
        )],
        why: "One tracer, null or a ring (DESIGN.md \"Telemetry\"), one scalar for trace \
              fields and span attributes, and one way to hand a scenario a tracer: \
              `scenario::stage(&cfg, tracer)`.",
        pr: 29,
        sample: "let sink = CapturingTracer::new();",
    },
    Tripwire {
        name: "Closed policy set",
        greps: &[
            grep(&["trait ", "dyn "], &["crates/core/src/strategy.rs"]),
            Grep {
                every_file: true,
                ..grep(&["MobilityModel"], &["crates"])
            },
        ],
        why: "The delivery policies are a closed table of values (DESIGN.md \"Delivery \
              policies\"), not a plugin trait, and the mobility generator has its one \
              process, not a model enum.",
        pr: 34,
        sample: "pub trait DeliveryPolicy {",
    },
    Tripwire {
        name: "One claim source",
        greps: &[
            Grep {
                except: &["crates/core/src/experiments/mod.rs"],
                ..grep(&["#[test]"], &["crates/core/src/experiments"])
            },
            Grep {
                every_file: true,
                ..grep(
                    &["routing_optimal", "sender_move_rebuilds_tree"],
                    &["crates/core/src"],
                )
            },
        ],
        why: "A paper claim is stated once, as a row of CLAIMS in \
              crates/core/tests/paper_claims.rs (DESIGN.md \"Experiment index\"): no \
              self-check inside an experiment runner, and no Table-1 predicate on Policy \
              for a row to disagree with.",
        pr: 38,
        sample: "#[test]",
    },
    Tripwire {
        name: "Faults and budgets as used",
        greps: &[grep(
            &[
                "gilbert_elliott",
                "ShedPolicy",
                "EvictStalest",
                "reconverge_slo_secs",
                "fn stalest",
            ],
            &["crates"],
        )],
        why: "Faults and budgets keep the one behaviour their callers run (DESIGN.md \
              \"Fault model\", \"Adversarial fault model\", \"Overload model\"): Bernoulli \
              loss, five equally likely corruption kinds, a full table that refuses the \
              newcomer, and a 60 s reconvergence bound that is a constant in core::run.",
        pr: 39,
        sample: "shed: ShedPolicy::EvictStalest,",
    },
    Tripwire {
        name: "Hop limit from the wire",
        greps: &[
            grep(
                &["packet.hop_limit"],
                &[
                    "crates/core/src/router_node.rs",
                    "crates/core/src/host_node.rs",
                ],
            ),
            grep(
                &[
                    "with_memo",
                    "with_forwarded_layers",
                    "Layers::forwarded",
                    ".forwarded(",
                    "fn forwarded(&self",
                ],
                CODE,
            ),
        ],
        why: "A forwarded frame shares the arriving frame's buffer and parse and patches \
              the hop limit (DESIGN.md \"Forward what arrived\"): the node glue reads the \
              hop limit through netplan::hop_limit, never off a parsed packet, and the \
              per-hop copy of the parse does not return.",
        pr: 42,
        sample: "let hops = packet.hop_limit;",
    },
    Tripwire {
        name: "MLD outputs as messages",
        greps: &[grep(
            &["HostOutput", "ListenerTable", "mld::table"],
            CODE_AND_BENCHMARK,
        )],
        why: "The MLD machines hand back plain messages, and the listener table is the \
              router's private state (DESIGN.md \"Sans-IO protocol cores\").",
        pr: 43,
        sample: "fn on_query(&mut self) -> Vec<HostOutput> {",
    },
    Tripwire {
        name: "Timers as the drafts fix them",
        greps: &[Grep {
            whole_word: true,
            ..grep(
                &[
                    ".hello_period",
                    ".hello_holdtime",
                    ".data_timeout",
                    ".prune_hold_time",
                    ".assert_time",
                    ".graft_retry",
                    ".control_rate_limit",
                    ".robustness",
                    ".query_response_interval",
                    ".startup_query_count",
                    ".last_listener_query_interval",
                    ".last_listener_query_count",
                    ".unsolicited_report_interval",
                ],
                CODE,
            )
        }],
        why: "PIM-DM and MLD timers that no run varies are the drafts' constants \
              (pimdm::config, mld::config; DESIGN.md \"Sans-IO protocol cores\"): \
              PimConfig keeps T_PruneDel and MldConfig keeps T_Query, and no field of the \
              others comes back.",
        pr: 41,
        sample: "let period = cfg.hello_period;",
    },
    Tripwire {
        name: "Mobile IPv6 as specified",
        greps: &[
            Grep {
                whole_word: true,
                ..grep(&["MnOutput"], CODE_AND_BENCHMARK)
            },
            grep(
                &["enum Location", "Location::", "mobile::Location"],
                CODE_AND_BENCHMARK,
            ),
            grep(
                &["impl CacheDelta", "CacheDelta::is_empty"],
                CODE_AND_BENCHMARK,
            ),
        ],
        why: "The Mobile IPv6 machines are specified by crates/mipv6/src/spec.rs (DESIGN.md \
              \"Sans-IO protocol cores\"): a mobile node call sends at most one Binding \
              Update (`BuSend`), the node's location is its care-of address (`None` at \
              home), and the cells the tables prove impossible stay out of the machines.",
        pr: 44,
        sample: "fn step(&mut self) -> Vec<MnOutput> {",
    },
    Tripwire {
        name: "One results gate",
        greps: &[Grep {
            every_file: true,
            ..grep(
                &[
                    "diff_report_values",
                    "DEFAULT_DRIFT_THRESHOLD",
                    "diff-selftest",
                    "golden-fault-sweep",
                ],
                &["crates", "src", "tests", "README.md", "DESIGN.md"],
            )
        }],
        why: "The committed results/ are guarded once (DESIGN.md \"Report CLI\"): \
              paper_claims compares every experiment's quick run byte for byte with \
              results/<id>.json and results/exp_all_output.txt, report.rs's unit test the \
              report artifacts, and golden_observability the exports of the golden run; no \
              tolerance gate or pinned subset returns.",
        pr: 45,
        sample: "let drift = diff_report_values(&old, &new);",
    },
    Tripwire {
        name: "A node counts into its own store",
        greps: &[grep(
            &[
                "bump!(self.recorder",
                "self.recorder.bump(",
                "bump!(recorder,",
            ],
            &[
                "crates/core/src/router_node.rs",
                "crates/core/src/host_node.rs",
                "crates/core/src/node_kit.rs",
            ],
        )],
        why: "A node counts each event once, into its own counters (DESIGN.md \"Per-node \
              MIB counters\"); the run's totals are node_kit::retire's fold of every store \
              through the name table, at run end and at a router's crash. A \
              recorder bump beside a MIB bump counts the same event twice.",
        pr: 51,
        sample: "bump!(self.recorder, \"host.data_sent\");",
    },
];

/// Do a needle's edge character and its neighbour on the line run one
/// word on?
fn joins(edge: Option<char>, neighbour: Option<char>) -> bool {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    edge.is_some_and(is_word) && neighbour.is_some_and(is_word)
}

impl Grep {
    /// Does `line` hold one of the needles?
    fn flags(&self, line: &str) -> bool {
        self.needles.iter().any(|needle| {
            line.match_indices(needle).any(|(at, _)| {
                let before = line[..at].chars().next_back();
                let after = line[at + needle.len()..].chars().next();
                !self.whole_word
                    || !(joins(needle.chars().next(), before)
                        || joins(needle.chars().next_back(), after))
            })
        })
    }

    /// Is `file`, from the repo root, in scope?
    fn reads(&self, file: &str) -> bool {
        file != THIS_FILE
            && !self.except.contains(&file)
            && self.paths.iter().any(|path| {
                file == *path
                    || file.strip_prefix(path).is_some_and(|rest| {
                        rest.starts_with('/') && (self.every_file || file.ends_with(".rs"))
                    })
            })
    }
}

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir` (from the repo root), skipping `target/` and
/// `.git/`.
fn walk(dir: &str, files: &mut BTreeSet<String>) {
    let Ok(entries) = fs::read_dir(repo().join(dir)) else {
        files.insert(dir.to_owned());
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name != "target" && name != ".git" {
            walk(&format!("{dir}/{name}"), files);
        }
    }
}

#[test]
fn the_tree_trips_no_wire() {
    let mut files = BTreeSet::new();
    for t in TRIPWIRES {
        for g in t.greps {
            for path in g.paths.iter().chain(g.except) {
                assert!(
                    repo().join(path).exists(),
                    "{}: {path} does not exist",
                    t.name
                );
            }
            for path in g.paths {
                walk(path, &mut files);
            }
        }
    }
    let mut findings = Vec::new();
    for file in &files {
        let scoped: Vec<(&Tripwire, &Grep)> = TRIPWIRES
            .iter()
            .flat_map(|t| t.greps.iter().map(move |g| (t, g)))
            .filter(|(_, g)| g.reads(file))
            .collect();
        if scoped.is_empty() {
            continue;
        }
        let bytes = fs::read(repo().join(file)).expect("a file the walk found");
        for (n, line) in String::from_utf8_lossy(&bytes).lines().enumerate() {
            for (t, _) in scoped.iter().filter(|(_, g)| g.flags(line)) {
                findings.push(format!(
                    "{file}:{}: {}\n  tripwire \"{}\" (PR {}): {}",
                    n + 1,
                    line.trim(),
                    t.name,
                    t.pr,
                    t.why
                ));
            }
        }
    }
    assert!(
        findings.is_empty(),
        "{} tripwire findings:\n{}",
        findings.len(),
        findings.join("\n")
    );
}

#[test]
fn every_row_flags_its_sample() {
    for t in TRIPWIRES {
        assert!(
            t.greps.iter().any(|g| g.flags(t.sample)),
            "\"{}\" does not flag its sample {:?}",
            t.name,
            t.sample
        );
    }
    let names: Vec<&str> = TRIPWIRES.iter().map(|t| t.name).collect();
    assert_eq!(
        names,
        [
            "One clock reader",
            "One run pipeline",
            "One journal reader",
            "No reader of retired rows",
            "No process-global run settings",
            "One tracer",
            "Closed policy set",
            "One claim source",
            "Faults and budgets as used",
            "Hop limit from the wire",
            "MLD outputs as messages",
            "Timers as the drafts fix them",
            "Mobile IPv6 as specified",
            "One results gate",
            "A node counts into its own store",
        ]
    );
    let distinct: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(distinct.len(), names.len(), "two rows share a name");
}

/// A whole-word needle stops at a word character only where its own edge
/// is one: `grep -w MnOutput` and `\.hello_period\b`.
#[test]
fn a_whole_word_needle_stops_at_word_characters() {
    let row = |name| &TRIPWIRES.iter().find(|t| t.name == name).unwrap().greps[0];
    let mn = row("Mobile IPv6 as specified");
    assert!(mn.flags("use mobicast_mipv6::MnOutput;"));
    assert!(!mn.flags("let outputs: MnOutputs = next();"));
    assert!(!mn.flags("struct OldMnOutput;"));
    let timers = row("Timers as the drafts fix them");
    assert!(timers.flags("let t = self.cfg.hello_period * 2;"));
    assert!(!timers.flags("let t = self.cfg.hello_periods;"));
    assert!(!row("One tracer").whole_word);
}
