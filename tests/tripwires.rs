//! Tripwires as data: each row of [`TRIPWIRES`] names code that a
//! simplification took out, or a second copy of something the design keeps
//! once, and where it must not come back. `the_tree_trips_no_wire` walks
//! the repo once and fails naming every line in a row's scope that holds
//! one of its needles; `every_row_flags_its_sample` shows that each row
//! catches the line it was written against. A new tripwire is a row here
//! plus its sample; DESIGN.md names the rows that guard its rules.
//!
//! `the_design_names_what_exists` holds DESIGN.md to the same tree: every
//! `DESIGN.md "Section"` citation in a row's `why` or a source file names
//! one of its headings or bold lead-ins, and every backticked Rust
//! path in it and README.md, every tripwire row and every `.rs` file it
//! names exists.
//!
//! A needle is a literal string: a regex alternation is several needles. A
//! whole-word needle matches only where none of its word-character edges
//! (letter, digit, `_`) touches another word character, so `MnOutput`
//! reads as `grep -w MnOutput` and `.hello_period` as `\.hello_period\b`.
//! A path is a file or a directory from the repo root; a directory is read
//! for its `*.rs` files unless the grep reads every file. The walk skips
//! `target/` and `.git/` at any depth, and this file, which holds every
//! needle.

use std::collections::{BTreeMap, BTreeSet};
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
        why: "A run is assembled and judged in core::run only (DESIGN.md, \"Run pipeline\"): \
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
              holds) is known in core::recorder only (DESIGN.md, \"Recorder and \
              oracle\"): readers ask what was settled as the run went \
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
        why: "Run settings travel as a value (experiments::Settings, DESIGN.md \"Run \
              settings are a value\"): no process-wide policy pin or worker count for a \
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
        why: "One tracer, null or a ring (DESIGN.md \"Structured trace export\"), one \
              scalar for trace fields and span attributes, and one way to hand a scenario a \
              tracer: `scenario::stage(&cfg, tracer)`.",
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

/// The quoted names after each `marker` in `text`: `DESIGN.md "A"`,
/// `DESIGN.md, "A"`, `DESIGN.md's "A"`, `tripwires "A", "B" and "C"`.
fn quoted_after(text: &str, marker: &str) -> Vec<String> {
    let mut names = Vec::new();
    for (at, _) in text.match_indices(marker) {
        let rest = &text[at + marker.len()..];
        let rest = rest.strip_prefix("'s").unwrap_or(rest);
        let mut rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
        while let Some((name, after)) = rest.strip_prefix('"').and_then(|body| body.split_once('"'))
        {
            names.push(name.to_owned());
            let after = after.trim_start();
            let after = after.strip_prefix(',').unwrap_or(after).trim_start();
            rest = after.strip_prefix("and ").unwrap_or(after);
        }
    }
    names
}

/// Source or markdown as prose: comment markers, string continuations
/// and escaped quotes gone, every run of whitespace one space.
fn prose(text: &str) -> String {
    let lines = text.lines().map(|line| {
        let line = line.trim().trim_start_matches('/').trim_start_matches('!');
        line.trim_end_matches('\\')
    });
    let joined = lines.collect::<Vec<_>>().join(" ").replace("\\\"", "\"");
    joined.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `text` hold `word` with no word character on either side?
fn has_word(text: &str, word: &str) -> bool {
    text.match_indices(word).any(|(at, _)| {
        !text[..at].ends_with(is_ident) && !text[at + word.len()..].starts_with(is_ident)
    })
}

/// Does `text` declare an item `name` with one of `keywords`?
fn declares(text: &str, keywords: &[&str], name: &str) -> bool {
    keywords
        .iter()
        .any(|kw| has_word(text, &format!("{kw} {name}")))
}

const ITEM: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];
const TYPE: &[&str] = &["struct", "enum", "trait", "type", "union"];

/// Does `text`, a module, declare `name` or bring it in with a `use`?
fn module_has(text: &str, name: &str) -> bool {
    declares(text, ITEM, name)
        || text
            .split("use ")
            .skip(1)
            .any(|statement| has_word(statement.split(';').next().unwrap_or_default(), name))
}

/// The Rust paths in a backticked span: `a::b::C`, each of
/// `T::{x, y}`; not `::x`, `a.b::c` or `x::<T>`'s turbofish.
fn rust_paths(span: &str) -> Vec<String> {
    let mut paths = Vec::new();
    let mut i = 0;
    while let Some(c) = span[i..].chars().next() {
        let starts = (c.is_alphabetic() || c == '_')
            && !span[..i].ends_with(|p: char| is_ident(p) || p == ':' || p == '.');
        if !starts {
            i += c.len_utf8();
            continue;
        }
        let mut segs = Vec::new();
        loop {
            let len = span[i..]
                .find(|c: char| !is_ident(c))
                .unwrap_or(span.len() - i);
            segs.push(&span[i..i + len]);
            i += len;
            let rest = span[i..].strip_prefix("::").unwrap_or_default();
            if rest.starts_with(|c: char| c.is_alphabetic() || c == '_') {
                i += 2;
            } else if let Some((group, _)) = rest.strip_prefix('{').and_then(|g| g.split_once('}'))
            {
                let head = segs.join("::");
                paths.extend(group.split(',').map(|m| format!("{head}::{}", m.trim())));
                segs.clear();
                i += 3 + group.len() + 1;
                break;
            } else {
                break;
            }
        }
        if segs.len() > 1 {
            paths.push(segs.join("::"));
        }
    }
    paths
}

/// Outside the tree: a path starting here names the standard library or
/// a clippy lint.
const EXTERNAL: &[&str] = &["std", "clippy"];

/// The tree's `*.rs` files, and for each type name the files that
/// declare or implement it.
struct Tree {
    sources: Vec<(String, String)>,
    about: BTreeMap<String, BTreeSet<usize>>,
}

impl Tree {
    fn new(sources: Vec<(String, String)>) -> Tree {
        let mut about: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
        for (i, (_, text)) in sources.iter().enumerate() {
            for line in text.lines().map(str::trim_start) {
                let line = ["pub(crate) ", "pub "]
                    .iter()
                    .fold(line, |l, p| l.strip_prefix(p).unwrap_or(l));
                let names: Vec<&str> = match line.split_once(' ') {
                    _ if line.starts_with("impl") => line.split(|c| !is_ident(c)).collect(),
                    Some((kw, rest)) if TYPE.contains(&kw) => {
                        rest.split(|c| !is_ident(c)).take(1).collect()
                    }
                    _ => continue,
                };
                for name in names.into_iter().filter(|n| !n.is_empty()) {
                    about.entry(name.to_owned()).or_default().insert(i);
                }
            }
        }
        Tree { sources, about }
    }

    fn text(&self, file: &str) -> Option<&str> {
        let found = self.sources.iter().find(|(f, _)| f == file);
        found.map(|(_, t)| t.as_str())
    }

    /// Is `member` a method, constant, field or variant in a file that
    /// declares or implements `ty`?
    fn has_member(&self, ty: &str, member: &str) -> bool {
        let files = self.about.get(ty).into_iter().flatten();
        files.map(|&i| &self.sources[i].1).any(|text| {
            declares(text, ITEM, member)
                || text.lines().any(|line| {
                    let line = line.trim_start();
                    let line = ["pub(crate) ", "pub "]
                        .iter()
                        .fold(line, |l, p| l.strip_prefix(p).unwrap_or(l));
                    line.strip_prefix(member).is_some_and(|rest| {
                        !rest.starts_with("::")
                            && (rest.is_empty() || rest.starts_with([':', ',', '(', ' ', '{']))
                    })
                })
        })
    }

    /// Does `path` name a module file, an item or a member in the tree?
    fn resolves(&self, path: &str) -> bool {
        let segs: Vec<&str> = path.split("::").collect();
        if EXTERNAL.contains(&segs[0]) {
            return true;
        }
        let name = segs[0].strip_prefix("mobicast_").unwrap_or(segs[0]);
        let crate_root = ["crates/", "crates/shims/"]
            .iter()
            .map(|dir| format!("{dir}{name}/src"))
            .chain((name == "mobicast").then(|| "src".to_owned()))
            .flat_map(|root| ["lib.rs", "main.rs"].map(|f| (format!("{root}/{f}"), root.clone())))
            .find(|(file, _)| self.text(file).is_some());
        if let Some(root) = crate_root {
            return self.resolve_in(root, &segs[1..]);
        }
        let as_type = self.about.contains_key(segs[0])
            && segs[1..].iter().all(|m| self.has_member(segs[0], m));
        let mut modules = self.sources.iter().filter_map(|(file, _)| {
            let stem = file.strip_suffix(&format!("/{}.rs", segs[0]));
            let dir = file
                .strip_suffix("/mod.rs")
                .filter(|d| d.ends_with(&format!("/{}", segs[0])));
            let dir = stem
                .map(|s| format!("{s}/{}", segs[0]))
                .or(dir.map(str::to_owned));
            dir.map(|dir| (file.clone(), dir))
        });
        as_type || modules.any(|m| self.resolve_in(m, &segs[1..]))
    }

    /// Resolve `rest` from a module, given as its file and the directory
    /// its children live in: modules, then an item the module declares
    /// or uses, then that item's members.
    fn resolve_in(&self, mut module: (String, String), mut rest: &[&str]) -> bool {
        while let Some(m) = rest.first().and_then(|seg| self.child(&module, seg)) {
            module = m;
            rest = &rest[1..];
        }
        let Some((item, members)) = rest.split_first() else {
            return true;
        };
        self.text(&module.0).is_some_and(|t| module_has(t, item))
            && members.iter().all(|m| self.has_member(item, m))
    }

    fn child(&self, (file, dir): &(String, String), seg: &str) -> Option<(String, String)> {
        let inline = self.text(file).is_some_and(|t| declares(t, &["mod"], seg));
        [format!("{dir}/{seg}.rs"), format!("{dir}/{seg}/mod.rs")]
            .into_iter()
            .find(|f| self.text(f).is_some())
            .map(|f| (f, format!("{dir}/{seg}")))
            .or(inline.then(|| (file.clone(), dir.clone())))
    }
}

/// DESIGN.md says what holds and names what enforces it, so every name it
/// uses must exist. A citation resolves to a heading or bold lead-in that
/// begins with the cited text; a path to a module file, or an item the
/// module declares or uses and then members of that item.
#[test]
fn the_design_names_what_exists() {
    let mut files = BTreeSet::new();
    for dir in CODE_AND_BENCHMARK {
        walk(dir, &mut files);
    }
    let read = |file: &str| {
        let bytes = fs::read(repo().join(file)).expect("a file the walk found");
        String::from_utf8_lossy(&bytes).into_owned()
    };
    let tree = Tree::new(
        files
            .iter()
            .filter(|f| f.ends_with(".rs"))
            .map(|f| (f.clone(), read(f)))
            .collect(),
    );
    let design = read("DESIGN.md");
    let mut findings = Vec::new();

    let flat = prose(&design);
    let headings = design
        .lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| l.trim_start_matches('#').trim());
    let bold = flat.split("**").skip(1).step_by(2);
    let anchors: Vec<&str> = headings.chain(bold).collect();
    let whys = TRIPWIRES
        .iter()
        .map(|t| (format!("tripwire \"{}\"", t.name), prose(t.why)));
    let comments = tree
        .sources
        .iter()
        .filter(|(f, _)| f != THIS_FILE && !f.starts_with("benchmark/"))
        .map(|(f, t)| (f.clone(), prose(t)));
    for (source, text) in whys.chain(comments) {
        for cited in quoted_after(&text, "DESIGN.md") {
            if !anchors.iter().any(|a| a.starts_with(&cited)) {
                findings.push(format!(
                    "{source} cites DESIGN.md \"{cited}\", which is no heading or bold lead-in"
                ));
            }
        }
    }

    for doc in ["DESIGN.md", "README.md"] {
        let text = read(doc);
        let mut fenced = false;
        let outside_fences: Vec<&str> = text
            .lines()
            .filter(|l| {
                fenced ^= l.starts_with("```");
                !fenced && !l.starts_with("```")
            })
            .collect();
        let outside_fences = outside_fences.join("\n");
        for span in outside_fences.split('`').skip(1).step_by(2) {
            for path in rust_paths(span) {
                if !tree.resolves(&path) {
                    findings.push(format!(
                        "{doc} names `{path}`, which is in no file of the tree"
                    ));
                }
            }
        }
    }

    let rows: Vec<&str> = TRIPWIRES.iter().map(|t| t.name).collect();
    for marker in ["tripwire", "tripwires"] {
        for name in quoted_after(&flat, &format!("{marker} ")) {
            if !rows.contains(&name.as_str()) {
                findings.push(format!(
                    "DESIGN.md names the tripwire \"{name}\", which is no row"
                ));
            }
        }
    }
    let words = flat.split(|c: char| !(is_ident(c) || "./-".contains(c)));
    for named in words.filter(|w| w.ends_with(".rs") && !w.starts_with('.')) {
        let found = files
            .iter()
            .any(|f| f == named || f.ends_with(&format!("/{named}")));
        if !found {
            findings.push(format!(
                "DESIGN.md names {named}, which is no file of the tree"
            ));
        }
    }

    assert!(
        findings.is_empty(),
        "{} stale names:\n{}",
        findings.len(),
        findings.join("\n")
    );
}
