//! Correctness checks on what the program returns. A violation is a wrong
//! answer (the run exits non-zero); an op that fails is not a violation,
//! it counts toward the error rate.

use std::collections::BTreeSet;

use rndi::core::context::SearchItem;
use rndi::core::value::BoundValue;

/// What one caller knows a key may hold: the last value it saw
/// acknowledged, plus every value whose write failed (a failed write may
/// still have been applied, or be applied later).
#[derive(Clone, Debug)]
pub struct KeyModel {
    acked: String,
    maybe: Vec<String>,
}

impl KeyModel {
    pub fn new(value: String) -> Self {
        KeyModel {
            acked: value,
            maybe: Vec::new(),
        }
    }

    pub fn acked(&self) -> &str {
        &self.acked
    }

    pub fn maybe(&self) -> &[String] {
        &self.maybe
    }

    pub fn on_ack(&mut self, value: String) {
        self.acked = value;
    }

    pub fn on_fail(&mut self, value: String) {
        self.maybe.push(value);
    }

    pub fn accepts(&self, value: &str) -> bool {
        value == self.acked || self.maybe.iter().any(|m| m == value)
    }
}

fn text(value: &BoundValue) -> Result<&str, String> {
    value
        .as_str()
        .ok_or_else(|| format!("expected a string value, got {}", value.class_name()))
}

/// A lookup by the key's only writer must return its last acknowledged
/// write `acked`, or one of the failed writes in `maybe` that landed.
pub fn check_read(
    name: &str,
    acked: &str,
    maybe: &[String],
    got: &BoundValue,
) -> Result<(), String> {
    let got = text(got)?;
    if got == acked || maybe.iter().any(|m| m == got) {
        Ok(())
    } else {
        Err(format!("lookup {name}: got {got:?}, expected {acked:?}"))
    }
}

/// A search must return exactly the expected names, each with the value
/// bound to it.
pub fn check_search(
    filter: &str,
    expected: &[(String, String)],
    hits: &[SearchItem],
) -> Result<(), String> {
    let got: BTreeSet<&str> = hits.iter().map(|h| h.name.as_str()).collect();
    let want: BTreeSet<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    if got.len() != hits.len() {
        return Err(format!("search {filter}: duplicate names in the reply"));
    }
    if got != want {
        let missing = want.difference(&got).count();
        let extra = got.difference(&want).count();
        return Err(format!(
            "search {filter}: {} hits, expected {}: {missing} missing, {extra} unexpected",
            hits.len(),
            expected.len()
        ));
    }
    for hit in hits {
        let (_, value) = expected
            .iter()
            .find(|(n, _)| *n == hit.name)
            .expect("names compared equal above");
        match &hit.value {
            Some(v) if text(v)? == value => {}
            other => {
                return Err(format!(
                    "search {filter}: hit {} carries {other:?}, expected {value:?}",
                    hit.name
                ))
            }
        }
    }
    Ok(())
}

/// After a replicated run: every replica holds the same value for `name`,
/// and that value is one the model allows.
pub fn check_replicas(
    name: &str,
    model: &KeyModel,
    per_replica: &[Option<BoundValue>],
) -> Result<(), String> {
    let mut seen: Option<&str> = None;
    for (i, v) in per_replica.iter().enumerate() {
        let v = match v {
            Some(v) => text(v)?,
            None => return Err(format!("{name}: missing on replica {i}")),
        };
        match seen {
            None => seen = Some(v),
            Some(first) if first != v => {
                return Err(format!(
                    "{name}: replicas disagree: {first:?} vs {v:?} on replica {i}"
                ))
            }
            Some(_) => {}
        }
    }
    let agreed = seen.ok_or_else(|| format!("{name}: no replicas"))?;
    if model.accepts(agreed) {
        Ok(())
    } else {
        Err(format!(
            "{name}: replicas agree on {agreed:?}, which was never written (last ack {:?})",
            model.acked()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rndi::core::attrs::Attributes;

    fn hit(name: &str, value: &str) -> SearchItem {
        SearchItem {
            name: name.to_string(),
            value: Some(BoundValue::str(value)),
            attrs: Attributes::new(),
        }
    }

    #[test]
    fn read_accepts_the_acked_value_and_rejects_an_injected_wrong_one() {
        let mut m = KeyModel::new("v0".into());
        assert!(check_read("k", m.acked(), m.maybe(), &BoundValue::str("v0")).is_ok());
        m.on_ack("v1".into());
        assert!(check_read("k", m.acked(), m.maybe(), &BoundValue::str("v1")).is_ok());
        let err = check_read("k", m.acked(), m.maybe(), &BoundValue::str("v0")).unwrap_err();
        assert!(err.contains("expected \"v1\""), "{err}");
        assert!(check_read("k", m.acked(), m.maybe(), &BoundValue::I64(1)).is_err());
    }

    #[test]
    fn a_failed_write_may_or_may_not_have_landed() {
        let mut m = KeyModel::new("v0".into());
        m.on_fail("v1".into());
        assert!(check_read("k", m.acked(), m.maybe(), &BoundValue::str("v0")).is_ok());
        assert!(check_read("k", m.acked(), m.maybe(), &BoundValue::str("v1")).is_ok());
        assert!(check_read("k", m.acked(), m.maybe(), &BoundValue::str("v2")).is_err());
    }

    #[test]
    fn search_must_match_the_expected_set_exactly() {
        let expected = vec![("a".to_string(), "1".to_string()), ("b".into(), "2".into())];
        assert!(check_search("(t)", &expected, &[hit("b", "2"), hit("a", "1")]).is_ok());
        assert!(check_search("(t)", &expected, &[hit("a", "1")]).is_err());
        assert!(check_search("(t)", &expected, &[hit("a", "1"), hit("c", "2")]).is_err());
        assert!(check_search("(t)", &expected, &[hit("a", "1"), hit("a", "1")]).is_err());
        // Right names, one injected wrong value.
        assert!(check_search("(t)", &expected, &[hit("a", "1"), hit("b", "9")]).is_err());
    }

    #[test]
    fn replicas_must_agree_on_an_allowed_value() {
        let mut m = KeyModel::new("v0".into());
        m.on_ack("v1".into());
        m.on_fail("v2".into());
        let all = |v: &str| vec![Some(BoundValue::str(v)); 3];
        assert!(check_replicas("k", &m, &all("v1")).is_ok());
        assert!(check_replicas("k", &m, &all("v2")).is_ok());
        // Overwritten by an acknowledged write, or never written at all.
        assert!(check_replicas("k", &m, &all("v0")).is_err());
        assert!(check_replicas("k", &m, &all("zz")).is_err());
        let split = vec![
            Some(BoundValue::str("v1")),
            Some(BoundValue::str("v2")),
            Some(BoundValue::str("v1")),
        ];
        assert!(check_replicas("k", &m, &split).is_err());
        assert!(check_replicas("k", &m, &[Some(BoundValue::str("v1")), None]).is_err());
    }
}
