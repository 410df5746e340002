//! Model-based test of [`Counters`]: by-handle and by-name access are two
//! doors to one storage, and that storage behaves — to the byte of its
//! serialized form — like the `BTreeMap<String, u64>` it used to be.

use mobicast_sim::{Counter, Counters};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Names with shared prefixes (for `sum_prefix` and the sort order), two
/// handles each: two call sites may name one counter.
const NAMES: [&str; 8] = [
    "a",
    "a.x",
    "a.y",
    "b",
    "b.x",
    "faults.frames_corrupted",
    "framesMalformed",
    "z",
];
static FIRST: [Counter; 8] = [
    Counter::new(NAMES[0]),
    Counter::new(NAMES[1]),
    Counter::new(NAMES[2]),
    Counter::new(NAMES[3]),
    Counter::new(NAMES[4]),
    Counter::new(NAMES[5]),
    Counter::new(NAMES[6]),
    Counter::new(NAMES[7]),
];
static SECOND: [Counter; 8] = [
    Counter::new(NAMES[0]),
    Counter::new(NAMES[1]),
    Counter::new(NAMES[2]),
    Counter::new(NAMES[3]),
    Counter::new(NAMES[4]),
    Counter::new(NAMES[5]),
    Counter::new(NAMES[6]),
    Counter::new(NAMES[7]),
];

type Model = BTreeMap<String, u64>;

fn model_add(m: &mut Model, name: &str, delta: u64) {
    *m.entry(name.to_owned()).or_insert(0) += delta;
}

fn model_max(m: &mut Model, name: &str, value: u64) {
    let slot = m.entry(name.to_owned()).or_insert(0);
    *slot = (*slot).max(value);
}

fn model_json(m: &Model) -> String {
    let entries: Vec<String> = m.iter().map(|(k, v)| format!("{k:?}:{v}")).collect();
    format!("{{\"values\":{{{}}}}}", entries.join(","))
}

fn assert_same(c: &Counters, m: &Model) {
    for name in NAMES.iter().chain(&["", "never.touched"]) {
        assert_eq!(c.get(name), m.get(*name).copied().unwrap_or(0), "{}", name);
    }
    let listed: Vec<(String, u64)> = c.iter().map(|(k, v)| (k.to_owned(), v)).collect();
    let expected: Vec<(String, u64)> = m.iter().map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(
        listed, expected,
        "exactly the touched counters, in name order"
    );
    assert_eq!(c.is_empty(), m.is_empty());
    for prefix in ["", "a", "a.", "b.", "f", "fr", "zz"] {
        let want: u64 = m
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(c.sum_prefix(prefix), want, "prefix {:?}", prefix);
    }
    assert_eq!(serde_json::to_string(c).unwrap(), model_json(m));
}

proptest! {
    /// A random interleaving of by-handle and by-name `add` / `record_max`
    /// over two sets, checked against the model after every operation, then
    /// merged, serialized and read back.
    #[test]
    fn counters_match_a_btreemap_by_name(ops in proptest::collection::vec(any::<u32>(), 0..120)) {
        let mut sets = [Counters::new(), Counters::new()];
        let mut models = [Model::new(), Model::new()];
        for op in ops {
            let which = (op & 1) as usize;
            let name = ((op >> 1) & 7) as usize;
            // Small values, 0 among them: a counter touched with 0 exists.
            let value = u64::from((op >> 8) & 3) * u64::from((op >> 10) & 7);
            let (c, m) = (&mut sets[which], &mut models[which]);
            match (op >> 4) & 7 {
                0 => { c.add(NAMES[name], value); model_add(m, NAMES[name], value); }
                1 => { c.inc(NAMES[name]); model_add(m, NAMES[name], 1); }
                2 => { c.bump(&FIRST[name], value); model_add(m, NAMES[name], value); }
                3 => { c.bump(&SECOND[name], value); model_add(m, NAMES[name], value); }
                4 => { c.record_max(NAMES[name], value); model_max(m, NAMES[name], value); }
                5 => { c.raise(&FIRST[name], value); model_max(m, NAMES[name], value); }
                6 => { c.raise(&SECOND[name], value); model_max(m, NAMES[name], value); }
                _ => { let copy = c.clone(); *c = copy; }
            }
            assert_same(c, m);
        }
        let [mut left, right] = sets;
        let [mut left_model, right_model] = models;
        left.merge(&right);
        for (k, v) in &right_model {
            model_add(&mut left_model, k, *v);
        }
        assert_same(&left, &left_model);
        assert_same(&right, &right_model);

        // Read back from the serialized form: same set, and a handle still
        // lands on the entry its name has there.
        let text = serde_json::to_string(&left).unwrap();
        let mut back: Counters =
            serde_json::from_value(serde_json::from_str(&text).unwrap()).unwrap();
        assert_same(&back, &left_model);
        back.bump(&FIRST[3], 5);
        back.add(NAMES[3], 1);
        model_add(&mut left_model, NAMES[3], 6);
        assert_same(&back, &left_model);
    }
}

#[test]
fn a_counter_exists_from_its_first_touch_and_not_before() {
    let mut c = Counters::new();
    assert!(c.is_empty(), "handles cost a new set nothing");
    assert_eq!(c.get(NAMES[6]), 0);
    assert_eq!(c.iter().count(), 0, "reading creates nothing");
    c.raise(&FIRST[6], 0);
    c.record_max("idle", 0);
    c.bump(&FIRST[0], 0);
    c.add("b", 0);
    let listed: Vec<_> = c.iter().collect();
    assert_eq!(
        listed,
        [("a", 0), ("b", 0), ("framesMalformed", 0), ("idle", 0)]
    );
    assert_eq!(FIRST[6].name(), "framesMalformed");
}
