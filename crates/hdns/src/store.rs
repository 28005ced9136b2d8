//! The replicated store: hierarchical entries + deterministic operations.

use std::collections::BTreeMap;

use serde::de::{field, Error as DeError};
use serde::{Deserialize, Serialize, Value};

/// An entry in the naming service.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct HdnsEntry {
    /// Marshalled bound value (opaque to HDNS).
    pub value: Vec<u8>,
    /// Multi-valued string attributes, keyed by id in the case it was
    /// created with. Ids compare case-insensitively (see
    /// [`HdnsEntry::attr`]) and are unique up to case.
    pub attrs: BTreeMap<String, Vec<String>>,
    /// Whether this entry is a subcontext (may have children).
    pub is_context: bool,
}

impl HdnsEntry {
    pub fn leaf(value: Vec<u8>) -> HdnsEntry {
        HdnsEntry {
            value,
            attrs: BTreeMap::new(),
            is_context: false,
        }
    }

    pub fn context() -> HdnsEntry {
        HdnsEntry {
            value: Vec::new(),
            attrs: BTreeMap::new(),
            is_context: true,
        }
    }

    /// Append one value to attribute `k`.
    pub fn with_attr(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.attrs.entry(k.into()).or_default().push(v.into());
        self
    }

    /// The stored id and values of attribute `id`, matched
    /// case-insensitively.
    pub fn attr(&self, id: &str) -> Option<(&str, &[String])> {
        find_attr(&self.attrs, id).map(|(k, v)| (k.as_str(), v.as_slice()))
    }
}

/// Case-insensitive attribute lookup. Should a map hold two case variants
/// of one id, the later in key order wins, as when it is decoded into a
/// case-folding attribute set.
fn find_attr<'a>(
    attrs: &'a BTreeMap<String, Vec<String>>,
    id: &str,
) -> Option<(&'a String, &'a Vec<String>)> {
    attrs.iter().rev().find(|(k, _)| k.eq_ignore_ascii_case(id))
}

/// Snapshots written before attributes were typed hold each value list
/// as a JSON-array string (`"k": "[\"v\"]"`); both forms restore.
impl Deserialize for HdnsEntry {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::custom("expected object for HdnsEntry"))?;
        let raw: BTreeMap<String, Value> = field(obj, "attrs")?;
        let mut attrs = BTreeMap::new();
        for (id, vals) in raw {
            let vals = match &vals {
                Value::String(legacy) => serde_json::from_str(legacy),
                typed => Vec::<String>::from_value(typed),
            }
            .map_err(|e| DeError::custom(format!("attribute `{id}`: {e}")))?;
            attrs.insert(id, vals);
        }
        Ok(HdnsEntry {
            value: field(obj, "value")?,
            attrs,
            is_context: field(obj, "is_context")?,
        })
    }
}

/// One step of an attribute modification. Ids match case-insensitively,
/// as [`HdnsEntry::attr`] does.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttrEdit {
    /// Append values, creating the attribute (under this id) if absent.
    Add(String, Vec<String>),
    /// Replace the attribute, id included.
    Replace(String, Vec<String>),
    /// Remove the attribute.
    Remove(String),
    /// Remove these values; the attribute goes when none remain.
    RemoveValues(String, Vec<String>),
}

impl AttrEdit {
    fn apply(&self, attrs: &mut BTreeMap<String, Vec<String>>) {
        let stored = |attrs: &BTreeMap<String, Vec<String>>, id: &str| {
            find_attr(attrs, id).map(|(k, _)| k.clone())
        };
        match self {
            AttrEdit::Add(id, values) => {
                let key = stored(attrs, id).unwrap_or_else(|| id.clone());
                attrs.entry(key).or_default().extend(values.iter().cloned());
            }
            AttrEdit::Replace(id, values) => {
                attrs.retain(|k, _| !k.eq_ignore_ascii_case(id));
                attrs.insert(id.clone(), values.clone());
            }
            AttrEdit::Remove(id) => attrs.retain(|k, _| !k.eq_ignore_ascii_case(id)),
            AttrEdit::RemoveValues(id, values) => {
                if let Some(key) = stored(attrs, id) {
                    let remaining = attrs.get_mut(&key).expect("key just found");
                    remaining.retain(|v| !values.contains(v));
                    if remaining.is_empty() {
                        attrs.remove(&key);
                    }
                }
            }
        }
    }
}

/// Store operation failures — deterministic across replicas.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HdnsError {
    AlreadyBound(String),
    NotFound(String),
    /// An intermediate path component is missing or not a context.
    NotAContext(String),
    /// Removing a context that still has children.
    NotEmpty(String),
    InvalidPath(String),
}

impl std::fmt::Display for HdnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HdnsError::AlreadyBound(p) => write!(f, "already bound: {p}"),
            HdnsError::NotFound(p) => write!(f, "not found: {p}"),
            HdnsError::NotAContext(p) => write!(f, "not a context: {p}"),
            HdnsError::NotEmpty(p) => write!(f, "context not empty: {p}"),
            HdnsError::InvalidPath(p) => write!(f, "invalid path: {p:?}"),
        }
    }
}

impl std::error::Error for HdnsError {}

/// A write operation, multicast to the group and applied deterministically
/// at every replica.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Bind an entry; `overwrite = false` gives atomic-bind semantics.
    Bind {
        path: String,
        entry: HdnsEntry,
        overwrite: bool,
    },
    Unbind {
        path: String,
    },
    Rename {
        from: String,
        to: String,
    },
    CreateContext {
        path: String,
    },
    /// Apply attribute edits to an existing entry, in order. Replicas
    /// apply them to the entry as it stands when the op is delivered, so
    /// concurrent modifications compose instead of overwriting each other.
    ModifyAttrs {
        path: String,
        edits: Vec<AttrEdit>,
    },
}

/// Validate and normalize a path: non-empty `/`-separated segments.
pub fn normalize_path(path: &str) -> Result<String, HdnsError> {
    let p = path.trim_matches('/');
    if p.is_empty() {
        return Err(HdnsError::InvalidPath(path.to_string()));
    }
    if p.split('/').any(|s| s.is_empty()) {
        return Err(HdnsError::InvalidPath(path.to_string()));
    }
    Ok(p.to_string())
}

fn parent_of(path: &str) -> Option<&str> {
    path.rsplit_once('/').map(|(p, _)| p)
}

/// The replica-local store. A flat ordered map keyed by normalized path;
/// hierarchy is enforced on mutation (parents must be contexts).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct HdnsStore {
    entries: BTreeMap<String, HdnsEntry>,
    /// Number of operations applied (replica convergence diagnostics).
    pub ops_applied: u64,
}

impl HdnsStore {
    pub fn new() -> Self {
        HdnsStore::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Read an entry (replica-local, no communication).
    pub fn get(&self, path: &str) -> Option<&HdnsEntry> {
        normalize_path(path).ok().and_then(|p| self.entries.get(&p))
    }

    /// Direct children of `prefix` (`""` = root), by child name.
    pub fn list(&self, prefix: &str) -> Vec<(String, &HdnsEntry)> {
        let mut out = Vec::new();
        self.for_each_child(prefix, |child, e| out.push((child.to_string(), e)));
        out
    }

    /// Visit the direct children of `prefix` (`""` = root) in child-name
    /// order, borrowing each entry in place.
    ///
    /// Non-root prefixes scan only the `"{prefix}/"` key range (the
    /// subtree is contiguous in the ordered map) instead of the whole
    /// store; the root has no such range in a flat path map, so it keeps
    /// the full iteration.
    pub fn for_each_child<'s>(&'s self, prefix: &str, mut visit: impl FnMut(&str, &'s HdnsEntry)) {
        let norm = prefix.trim_matches('/');
        if norm.is_empty() {
            for (k, e) in &self.entries {
                if !k.contains('/') {
                    visit(k, e);
                }
            }
            return;
        }
        let range_prefix = format!("{norm}/");
        for (k, e) in self.entries.range(range_prefix.clone()..) {
            let Some(child) = k.strip_prefix(&range_prefix) else {
                break;
            };
            if !child.contains('/') {
                visit(child, e);
            }
        }
    }

    fn check_parent(&self, path: &str) -> Result<(), HdnsError> {
        if let Some(parent) = parent_of(path) {
            match self.entries.get(parent) {
                Some(e) if e.is_context => Ok(()),
                Some(_) => Err(HdnsError::NotAContext(parent.to_string())),
                None => Err(HdnsError::NotFound(parent.to_string())),
            }
        } else {
            Ok(())
        }
    }

    fn has_children(&self, path: &str) -> bool {
        let prefix = format!("{path}/");
        self.entries
            .range(prefix.clone()..)
            .next()
            .is_some_and(|(k, _)| k.starts_with(&prefix))
    }

    /// Apply an operation. Deterministic: identical stores applying the
    /// same op yield identical results and identical new states.
    pub fn apply(&mut self, op: &Op) -> Result<(), HdnsError> {
        self.ops_applied += 1;
        match op {
            Op::Bind {
                path,
                entry,
                overwrite,
            } => {
                let p = normalize_path(path)?;
                self.check_parent(&p)?;
                if !overwrite && self.entries.contains_key(&p) {
                    return Err(HdnsError::AlreadyBound(p));
                }
                if let Some(existing) = self.entries.get(&p) {
                    if existing.is_context && self.has_children(&p) {
                        return Err(HdnsError::NotEmpty(p));
                    }
                }
                self.entries.insert(p, entry.clone());
                Ok(())
            }
            Op::Unbind { path } => {
                let p = normalize_path(path)?;
                if self.has_children(&p) {
                    return Err(HdnsError::NotEmpty(p));
                }
                self.entries.remove(&p);
                Ok(())
            }
            Op::Rename { from, to } => {
                let f = normalize_path(from)?;
                let t = normalize_path(to)?;
                if self.has_children(&f) {
                    return Err(HdnsError::NotEmpty(f));
                }
                // Remove first, then validate the target — so renaming a
                // context *into its own subtree* (a → a/b) fails on the
                // missing parent instead of orphaning the entry.
                let entry = self
                    .entries
                    .remove(&f)
                    .ok_or_else(|| HdnsError::NotFound(f.clone()))?;
                let target_ok = if self.entries.contains_key(&t) {
                    Err(HdnsError::AlreadyBound(t.clone()))
                } else {
                    self.check_parent(&t)
                };
                match target_ok {
                    Ok(()) => {
                        self.entries.insert(t, entry);
                        Ok(())
                    }
                    Err(e) => {
                        self.entries.insert(f, entry);
                        Err(e)
                    }
                }
            }
            Op::CreateContext { path } => {
                let p = normalize_path(path)?;
                self.check_parent(&p)?;
                if self.entries.contains_key(&p) {
                    return Err(HdnsError::AlreadyBound(p));
                }
                self.entries.insert(p, HdnsEntry::context());
                Ok(())
            }
            Op::ModifyAttrs { path, edits } => {
                let p = normalize_path(path)?;
                let entry = self.entries.get_mut(&p).ok_or(HdnsError::NotFound(p))?;
                for edit in edits {
                    edit.apply(&mut entry.attrs);
                }
                Ok(())
            }
        }
    }

    /// Serialize the full state (state transfer + disk snapshots).
    pub fn snapshot(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("store is always serializable")
    }

    /// Restore from a snapshot.
    pub fn restore(bytes: &[u8]) -> Result<HdnsStore, String> {
        serde_json::from_slice(bytes).map_err(|e| e.to_string())
    }

    /// Iterate all `(path, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &HdnsEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_get_roundtrip() {
        let mut s = HdnsStore::new();
        s.apply(&Op::Bind {
            path: "x".into(),
            entry: HdnsEntry::leaf(vec![1]),
            overwrite: false,
        })
        .unwrap();
        assert_eq!(s.get("x").unwrap().value, vec![1]);
        assert_eq!(s.get("/x/").unwrap().value, vec![1], "normalized");
    }

    #[test]
    fn atomic_bind_conflicts() {
        let mut s = HdnsStore::new();
        let bind = |overwrite| Op::Bind {
            path: "k".into(),
            entry: HdnsEntry::leaf(vec![2]),
            overwrite,
        };
        s.apply(&bind(false)).unwrap();
        assert_eq!(
            s.apply(&bind(false)),
            Err(HdnsError::AlreadyBound("k".into()))
        );
        s.apply(&bind(true)).unwrap();
    }

    #[test]
    fn hierarchy_enforced() {
        let mut s = HdnsStore::new();
        assert!(matches!(
            s.apply(&Op::Bind {
                path: "a/b".into(),
                entry: HdnsEntry::leaf(vec![]),
                overwrite: false
            }),
            Err(HdnsError::NotFound(_))
        ));
        s.apply(&Op::CreateContext { path: "a".into() }).unwrap();
        s.apply(&Op::Bind {
            path: "a/b".into(),
            entry: HdnsEntry::leaf(vec![3]),
            overwrite: false,
        })
        .unwrap();
        // A leaf cannot parent children.
        assert!(matches!(
            s.apply(&Op::Bind {
                path: "a/b/c".into(),
                entry: HdnsEntry::leaf(vec![]),
                overwrite: false
            }),
            Err(HdnsError::NotAContext(_))
        ));
    }

    #[test]
    fn unbind_guards_nonempty_context() {
        let mut s = HdnsStore::new();
        s.apply(&Op::CreateContext { path: "c".into() }).unwrap();
        s.apply(&Op::Bind {
            path: "c/x".into(),
            entry: HdnsEntry::leaf(vec![]),
            overwrite: false,
        })
        .unwrap();
        assert_eq!(
            s.apply(&Op::Unbind { path: "c".into() }),
            Err(HdnsError::NotEmpty("c".into()))
        );
        s.apply(&Op::Unbind { path: "c/x".into() }).unwrap();
        s.apply(&Op::Unbind { path: "c".into() }).unwrap();
        // Unbinding a missing path succeeds (idempotent).
        s.apply(&Op::Unbind { path: "c".into() }).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn list_direct_children_only() {
        let mut s = HdnsStore::new();
        s.apply(&Op::CreateContext { path: "a".into() }).unwrap();
        s.apply(&Op::CreateContext { path: "a/b".into() }).unwrap();
        s.apply(&Op::Bind {
            path: "a/leaf".into(),
            entry: HdnsEntry::leaf(vec![]),
            overwrite: false,
        })
        .unwrap();
        s.apply(&Op::Bind {
            path: "a/b/deep".into(),
            entry: HdnsEntry::leaf(vec![]),
            overwrite: false,
        })
        .unwrap();
        let mut names: Vec<String> = s.list("a").into_iter().map(|(n, _)| n).collect();
        names.sort();
        assert_eq!(names, vec!["b", "leaf"]);
        let root: Vec<String> = s.list("").into_iter().map(|(n, _)| n).collect();
        assert_eq!(root, vec!["a"]);
    }

    #[test]
    fn rename_semantics() {
        let mut s = HdnsStore::new();
        s.apply(&Op::Bind {
            path: "old".into(),
            entry: HdnsEntry::leaf(vec![7]),
            overwrite: false,
        })
        .unwrap();
        s.apply(&Op::Rename {
            from: "old".into(),
            to: "new".into(),
        })
        .unwrap();
        assert!(s.get("old").is_none());
        assert_eq!(s.get("new").unwrap().value, vec![7]);
        assert_eq!(
            s.apply(&Op::Rename {
                from: "ghost".into(),
                to: "x".into()
            }),
            Err(HdnsError::NotFound("ghost".into()))
        );
    }

    #[test]
    fn modify_attrs_edits_in_place() {
        let mut s = HdnsStore::new();
        s.apply(&Op::Bind {
            path: "e".into(),
            entry: HdnsEntry::leaf(vec![])
                .with_attr("Color", "red")
                .with_attr("size", "xl"),
            overwrite: false,
        })
        .unwrap();
        let edit = |edits: Vec<AttrEdit>| Op::ModifyAttrs {
            path: "e".into(),
            edits,
        };
        s.apply(&edit(vec![
            AttrEdit::Add("COLOR".into(), vec!["blue".into()]),
            AttrEdit::Add("note".into(), vec![]),
            AttrEdit::Replace("SIZE".into(), vec!["s".into()]),
        ]))
        .unwrap();
        let e = s.get("e").unwrap();
        assert_eq!(
            e.attrs["Color"],
            vec!["red", "blue"],
            "Add keeps the stored id"
        );
        assert_eq!(
            e.attrs["note"],
            Vec::<String>::new(),
            "Add creates, even empty"
        );
        assert_eq!(e.attr("size"), Some(("SIZE", &["s".to_string()][..])));
        assert!(!e.attrs.contains_key("size"), "Replace installs its own id");

        s.apply(&edit(vec![
            AttrEdit::RemoveValues("color".into(), vec!["red".into(), "green".into()]),
            AttrEdit::Remove("Note".into()),
            AttrEdit::RemoveValues("size".into(), vec!["s".into()]),
        ]))
        .unwrap();
        let e = s.get("e").unwrap();
        assert_eq!(e.attrs.len(), 1, "last value gone, attribute gone: {e:?}");
        assert_eq!(e.attrs["Color"], vec!["blue"]);
        assert_eq!(
            s.apply(&Op::ModifyAttrs {
                path: "ghost".into(),
                edits: vec![AttrEdit::Remove("x".into())],
            }),
            Err(HdnsError::NotFound("ghost".into()))
        );
    }

    #[test]
    fn legacy_snapshot_with_json_string_attrs_restores() {
        // The form snapshots took while attribute values were stored as
        // JSON-array strings inside the JSON snapshot.
        let legacy = br#"{"entries":{"ctx":{"value":[],"attrs":{},"is_context":true},"ctx/n1":{"value":[1,2],"attrs":{"os":"[\"linux\"]","tag":"[\"a\",\"b\"]","empty":"[]"},"is_context":false}},"ops_applied":7}"#;
        let s = HdnsStore::restore(legacy).unwrap();
        assert_eq!(s.ops_applied, 7);
        let e = s.get("ctx/n1").unwrap();
        assert_eq!(e.value, vec![1, 2]);
        assert_eq!(e.attrs["os"], vec!["linux"]);
        assert_eq!(e.attrs["tag"], vec!["a", "b"]);
        assert!(e.attrs["empty"].is_empty());
        assert!(s.get("ctx").unwrap().is_context);
        // Re-snapshotting writes the typed form, which restores to the same.
        let snap = s.snapshot();
        assert!(String::from_utf8_lossy(&snap).contains(r#""os":["linux"]"#));
        assert_eq!(HdnsStore::restore(&snap).unwrap().get("ctx/n1"), Some(e));
        // A legacy value that is not a JSON array of strings is an error.
        let bad = br#"{"entries":{"n":{"value":[],"attrs":{"os":"linux"},"is_context":false}},"ops_applied":1}"#;
        assert!(HdnsStore::restore(bad).is_err());
    }

    #[test]
    fn snapshot_restore_identical() {
        let mut s = HdnsStore::new();
        s.apply(&Op::CreateContext { path: "a".into() }).unwrap();
        s.apply(&Op::Bind {
            path: "a/x".into(),
            entry: HdnsEntry::leaf(vec![9]).with_attr("k", "v"),
            overwrite: false,
        })
        .unwrap();
        let snap = s.snapshot();
        let restored = HdnsStore::restore(&snap).unwrap();
        assert_eq!(restored.len(), s.len());
        assert_eq!(restored.get("a/x"), s.get("a/x"));
        assert!(HdnsStore::restore(b"junk").is_err());
    }

    #[test]
    fn deterministic_convergence() {
        // Two replicas applying the same op sequence end identical, even
        // when ops fail.
        let ops = [
            Op::CreateContext { path: "c".into() },
            Op::Bind {
                path: "c/x".into(),
                entry: HdnsEntry::leaf(vec![1]),
                overwrite: false,
            },
            Op::Bind {
                path: "c/x".into(),
                entry: HdnsEntry::leaf(vec![2]),
                overwrite: false,
            }, // conflict: fails identically on both
            Op::Unbind {
                path: "nope".into(),
            },
            Op::Rename {
                from: "c/x".into(),
                to: "c/y".into(),
            },
        ];
        let mut a = HdnsStore::new();
        let mut b = HdnsStore::new();
        let ra: Vec<_> = ops.iter().map(|o| a.apply(o)).collect();
        let rb: Vec<_> = ops.iter().map(|o| b.apply(o)).collect();
        assert_eq!(ra, rb);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.get("c/y").unwrap().value, vec![1], "first bind won");
    }

    #[test]
    fn invalid_paths_rejected() {
        let mut s = HdnsStore::new();
        for bad in ["", "/", "a//b"] {
            assert!(matches!(
                s.apply(&Op::Unbind { path: bad.into() }),
                Err(HdnsError::InvalidPath(_))
            ));
        }
    }
}
