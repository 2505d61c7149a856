//! The content-hashed, LRU-bounded circuit registry.
//!
//! Each entry pairs a parsed [`Circuit`] with a shared
//! [`CheckSession`]`<'static>`: the expensive per-circuit analyses
//! (implication table, SCOAP, arrival times, dominators, base fixpoint)
//! are computed once per *content*, then reused by every request that
//! names the circuit. Entries are keyed by an FNV-1a hash of
//! `(format, delay, source)`, so re-registering byte-identical content —
//! even under a different name — is a cache hit that re-parses nothing.
//!
//! The registry is bounded: inserting beyond capacity evicts the
//! least-recently-used entry. Eviction only drops the registry's
//! reference; requests already holding the [`Arc<CircuitEntry>`] finish
//! normally and the entry is freed when the last one completes.

use crate::proto::{EditSpec, ErrorCode, ProtoError};
use ltt_core::{CheckSession, Completeness, Engine, VerifyConfig, VerifyReport};
use ltt_netlist::{
    parse_netlist, Circuit, CircuitEdit, DelayInterval, EditError, NamedEdit, NetId,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Per-check results cached on a [`CircuitEntry`] beyond this count are
/// dropped (insertion simply stops — the cache exists to make patch
/// re-verification cheap, not to be a complete memo table).
const RESULT_CACHE_CAP: usize = 4096;

pub(crate) fn fnv_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Folds length-framed records into an FNV-1a state. The `[len][bytes]`
/// framing keeps record boundaries in the hash: concatenations that merely
/// move bytes across a boundary (`["a","bc"]` vs `["ab","c"]`) hash
/// differently, and folding records one at a time equals folding them all
/// at once — which is what makes a chain of `patch` requests hash to the
/// same id as one batched `patch` with the same edits.
fn fold_framed<'a>(mut hash: u64, records: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    for record in records {
        let len = u32::try_from(record.len()).unwrap_or(u32::MAX);
        hash = fnv_fold(hash, &len.to_le_bytes());
        hash = fnv_fold(hash, record);
    }
    hash
}

/// Content hash of a registration: 64-bit FNV-1a over the format, the
/// per-gate delay, and the netlist source, rendered as 16 hex digits.
/// (A non-cryptographic hash is fine here: the registry is a cache, and a
/// collision's worst case is answering for the colliding circuit — the
/// same trust model as the netlist itself, which the client also supplies.)
pub fn content_id(format: &str, delay: u32, source: &str) -> String {
    let mut hash = FNV_OFFSET;
    hash = fnv_fold(hash, format.as_bytes());
    hash = fnv_fold(hash, &[0]);
    hash = fnv_fold(hash, &delay.to_le_bytes());
    hash = fnv_fold(hash, &[0]);
    hash = fnv_fold(hash, source.as_bytes());
    format!("{hash:016x}")
}

/// The canonical byte encoding of one edit for [`patched_id`]: a tag byte,
/// then every variable-length component length-prefixed.
fn edit_bytes(edit: &EditSpec) -> Vec<u8> {
    let mut out = Vec::new();
    // u64 length frames: a u32 frame would alias a name of length L with
    // one of length L + 2^32, making two distinct edits hash-equal.
    let push_str = |out: &mut Vec<u8>, s: &str| {
        out.extend_from_slice(&(s.len() as u64).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    };
    match edit {
        EditSpec::SetDelay { gate, min, max } => {
            out.push(1);
            push_str(&mut out, gate);
            out.extend_from_slice(&min.to_le_bytes());
            out.extend_from_slice(&max.to_le_bytes());
        }
        EditSpec::Rewire { gate, inputs } => {
            out.push(2);
            push_str(&mut out, gate);
            out.extend_from_slice(&(inputs.len() as u64).to_le_bytes());
            for input in inputs {
                push_str(&mut out, input);
            }
        }
    }
    out
}

/// The content id of a patched revision, computed **incrementally**: the
/// parent's id is parsed back into the 64-bit FNV state and the edits are
/// folded on top as length-framed records — the full netlist source is
/// never re-hashed. Folding is associative over the framing, so applying
/// edits one `patch` at a time yields the same id as one batched `patch`:
/// `patched_id(patched_id(p, [a]), [b]) == patched_id(p, [a, b])`.
pub fn patched_id(parent_id: &str, edits: &[EditSpec]) -> String {
    let state = u64::from_str_radix(parent_id, 16)
        .unwrap_or_else(|_| fnv_fold(FNV_OFFSET, parent_id.as_bytes()));
    let records: Vec<Vec<u8>> = edits.iter().map(edit_bytes).collect();
    let hash = fold_framed(state, records.iter().map(Vec::as_slice));
    format!("{hash:016x}")
}

/// The [`VerifyConfig`] every registry session runs under: the default
/// full pipeline. All served reports — and the local oracles the
/// equivalence tests compare against — use this configuration, so served
/// and in-process reports are bit-identical.
pub fn session_config() -> VerifyConfig {
    VerifyConfig::default()
}

/// One registered circuit: identity, parsed netlist, and the shared
/// prepared session every request against it reuses.
pub struct CircuitEntry {
    /// The content hash (the canonical registry key).
    pub id: String,
    /// The name it was registered under (an alias key; a later
    /// registration may rebind the name to different content).
    pub name: String,
    /// The parsed netlist.
    pub circuit: Arc<Circuit>,
    /// The shared check session (the [`session_config`] configuration).
    pub session: CheckSession<'static>,
    /// Exact per-check results already produced against this entry, keyed
    /// `(output, δ, engine)`. Only [`Completeness::Exact`] reports are cached —
    /// budget-tripped reports depend on the request's budget, exact ones
    /// are the deterministic fixed answer regardless of it. A `patch`
    /// transplants the subset whose fanin cone the edit cannot reach.
    results: Mutex<HashMap<(NetId, i64, Engine), VerifyReport>>,
}

impl CircuitEntry {
    /// The cached exact report `engine` gave for `(output, delta)`, if any.
    pub fn cached_report(&self, engine: Engine, output: NetId, delta: i64) -> Option<VerifyReport> {
        self.results
            .lock()
            .expect("result cache lock poisoned")
            .get(&(output, delta, engine))
            .cloned()
    }

    /// Caches every exact report `engine` gave in `reports` (up to the
    /// cache cap).
    pub fn cache_reports<'a>(
        &self,
        engine: Engine,
        reports: impl IntoIterator<Item = &'a VerifyReport>,
    ) {
        let mut cache = self.results.lock().expect("result cache lock poisoned");
        for report in reports {
            if cache.len() >= RESULT_CACHE_CAP {
                break;
            }
            if matches!(report.completeness, Completeness::Exact) {
                cache
                    .entry((report.output, report.delta, engine))
                    .or_insert_with(|| report.clone());
            }
        }
    }

    /// The number of cached results (test and status visibility).
    pub fn cached_results(&self) -> usize {
        self.results
            .lock()
            .expect("result cache lock poisoned")
            .len()
    }
}

impl std::fmt::Debug for CircuitEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitEntry")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("nets", &self.circuit.num_nets())
            .finish()
    }
}

/// Registry occupancy and traffic counters (the `status` payload).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
    /// Lookups (and re-registrations) served from a resident entry.
    pub hits: u64,
    /// Lookups that found nothing / registrations that had to parse.
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

impl RegistryStats {
    /// Hits as a fraction of all lookups (`None` before any traffic).
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

struct Inner {
    /// Most-recently-used first.
    entries: VecDeque<Arc<CircuitEntry>>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Inner {
    /// Moves the first entry matching `pred` to the front, counting a hit.
    fn promote(&mut self, pred: impl Fn(&CircuitEntry) -> bool) -> Option<Arc<CircuitEntry>> {
        let pos = self.entries.iter().position(|e| pred(e))?;
        let entry = self.entries.remove(pos).expect("position just found");
        self.entries.push_front(entry.clone());
        self.hits += 1;
        Some(entry)
    }
}

/// A bounded, thread-safe circuit cache (see the module docs).
///
/// # Examples
///
/// ```
/// use ltt_serve::CircuitRegistry;
///
/// let registry = CircuitRegistry::new(4);
/// let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";
/// let (entry, cached) = registry.register("tiny", "bench", src, 10).unwrap();
/// assert!(!cached);
/// // Same content, different name: no re-parse, no re-prepare.
/// let (again, cached) = registry.register("tiny2", "bench", src, 10).unwrap();
/// assert!(cached);
/// assert_eq!(entry.id, again.id);
/// ```
pub struct CircuitRegistry {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl CircuitRegistry {
    /// A registry holding at most `capacity` circuits (minimum 1).
    pub fn new(capacity: usize) -> Self {
        CircuitRegistry {
            inner: Mutex::new(Inner {
                entries: VecDeque::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Registers a netlist: parses it (unless byte-identical content is
    /// already resident), builds the shared session, and returns the entry
    /// plus whether it was a cache hit. Parsing and session construction
    /// run *outside* the registry lock, so a slow parse never blocks
    /// concurrent lookups.
    pub fn register(
        &self,
        name: &str,
        format: &str,
        source: &str,
        delay: u32,
    ) -> Result<(Arc<CircuitEntry>, bool), ProtoError> {
        let id = content_id(format, delay, source);
        // `count_miss: false`: a cold registration counts one miss (in the
        // insert path below), not one per probe.
        if let Some(entry) = self.touch(|e| e.id == id, false) {
            return Ok((entry, true));
        }
        let circuit = Arc::new(parse_circuit(name, format, source, delay)?);
        let entry = Arc::new(CircuitEntry {
            id,
            name: name.to_string(),
            session: CheckSession::new_shared(circuit.clone(), session_config()),
            circuit,
            results: Mutex::new(HashMap::new()),
        });
        Ok(self.insert(entry))
    }

    /// Inserts a freshly built entry as most-recently-used, evicting past
    /// capacity, and returns it with `false`. Double-check: a racing
    /// insert of the same content wins if it got here first — its entry
    /// (and its warm analyses) is returned with `true` rather than
    /// shadowed by ours.
    fn insert(&self, entry: Arc<CircuitEntry>) -> (Arc<CircuitEntry>, bool) {
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        if let Some(existing) = inner.promote(|e| e.id == entry.id) {
            return (existing, true);
        }
        inner.misses += 1;
        inner.entries.push_front(entry.clone());
        while inner.entries.len() > self.capacity {
            inner.entries.pop_back();
            inner.evictions += 1;
        }
        (entry, false)
    }

    /// Looks up an entry by content id or by registered name (most
    /// recently used wins when several names collide) and marks it
    /// most-recently-used.
    pub fn lookup(&self, key: &str) -> Result<Arc<CircuitEntry>, ProtoError> {
        self.touch(|e| e.id == key || e.name == key, true)
            .ok_or_else(|| {
                ProtoError::new(
                    ErrorCode::UnknownCircuit,
                    format!(
                        "no registered circuit `{key}` (register it, or it may have been evicted)"
                    ),
                )
            })
    }

    /// Applies ECO edits to the entry named by `key`, producing — and
    /// registering under the incrementally-derived [`patched_id`] — a new
    /// entry whose session is **rebased** from the parent's instead of
    /// prepared cold: analyses (and cached exact reports) for outputs
    /// whose fanin cone the edit cannot reach carry over untouched.
    ///
    /// Re-patching with the same edits is a cache hit on the patched id
    /// (`resident: true`): nothing is re-applied or re-verified.
    pub fn patch(
        &self,
        key: &str,
        name: Option<&str>,
        edits: &[EditSpec],
    ) -> Result<PatchOutcome, ProtoError> {
        let parent = self.lookup(key)?;
        let id = patched_id(&parent.id, edits);
        let structural = edits.iter().any(EditSpec::is_structural);
        if let Some(entry) = self.touch(|e| e.id == id, false) {
            return Ok(PatchOutcome {
                entry,
                resident: true,
                structural,
                dirty: Vec::new(),
                transplanted: 0,
            });
        }
        // Resolve name-addressed edits against the parent, then patch its
        // session. All outside the registry lock, like `register`'s parse.
        let patch = resolve_edits(&parent.circuit, edits)
            .and_then(|edits| parent.session.patch(&edits))
            .map_err(|e| ProtoError::new(ErrorCode::BadRequest, e.to_string()))?;
        let dirty_names: Vec<String> = patch
            .dirty
            .iter()
            .map(|&n| parent.circuit.net(n).name().to_string())
            .collect();
        // Carry over the cached exact reports of every output the patch
        // leaves unaffected: they re-verify bit-identically. Only outputs
        // with a cached report are asked, so no other cone is built, and
        // none is built under the cache lock.
        let lock = || parent.results.lock().expect("result cache lock poisoned");
        let cached: HashSet<NetId> = lock().keys().map(|&(out, _, _)| out).collect();
        let unaffected: HashSet<NetId> = cached
            .into_iter()
            .filter(|&out| patch.unaffected(out))
            .collect();
        let results: HashMap<_, _> = lock()
            .iter()
            .filter(|((out, _, _), _)| unaffected.contains(out))
            .map(|(&key, report)| (key, report.clone()))
            .collect();
        let transplanted = results.len();
        let entry = Arc::new(CircuitEntry {
            // Without an explicit alias the patched entry answers to its
            // content id only — it must not shadow the parent's name.
            name: name.unwrap_or(&id).to_string(),
            id,
            session: patch.session,
            circuit: patch.circuit,
            results: Mutex::new(results),
        });
        let (entry, resident) = self.insert(entry);
        Ok(PatchOutcome {
            entry,
            resident,
            structural,
            dirty: dirty_names,
            transplanted: if resident { 0 } else { transplanted },
        })
    }

    /// Finds the first (most-recently-used) entry matching `pred`, moves
    /// it to the front and counts the hit; counts a miss when nothing
    /// matches and `count_miss` is set (a registration's pre-probe must
    /// not count a miss the insert path will count again).
    fn touch(
        &self,
        pred: impl Fn(&CircuitEntry) -> bool,
        count_miss: bool,
    ) -> Option<Arc<CircuitEntry>> {
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        let found = inner.promote(pred);
        inner.misses += u64::from(found.is_none() && count_miss);
        found
    }

    /// A snapshot of the registry counters.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().expect("registry lock poisoned");
        RegistryStats {
            entries: inner.entries.len(),
            capacity: self.capacity,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }
}

/// What [`CircuitRegistry::patch`] produced.
#[derive(Debug)]
pub struct PatchOutcome {
    /// The patched revision's registry entry.
    pub entry: Arc<CircuitEntry>,
    /// `true` when the patched id was already registered — the whole
    /// apply/rebase pipeline was skipped (and `dirty`/`transplanted` are
    /// not recomputed).
    pub resident: bool,
    /// Whether any edit changed connectivity (a rewire).
    pub structural: bool,
    /// Names of the nets whose constraints the edits changed.
    pub dirty: Vec<String>,
    /// Cached exact reports carried over from the parent entry.
    pub transplanted: usize,
}

/// Resolves name-addressed [`EditSpec`]s into id-addressed
/// [`CircuitEdit`]s against a concrete circuit
/// ([`Circuit::resolve_edit`]).
fn resolve_edits(circuit: &Circuit, edits: &[EditSpec]) -> Result<Vec<CircuitEdit>, EditError> {
    edits
        .iter()
        .map(|edit| {
            circuit.resolve_edit(&match edit {
                EditSpec::SetDelay { gate, min, max } => NamedEdit::SetDelay {
                    gate,
                    delay: DelayInterval::new(*min, *max),
                },
                EditSpec::Rewire { gate, inputs } => NamedEdit::Rewire {
                    gate,
                    inputs: inputs.iter().map(String::as_str).collect(),
                },
            })
        })
        .collect()
}

fn parse_circuit(
    name: &str,
    format: &str,
    source: &str,
    delay: u32,
) -> Result<Circuit, ProtoError> {
    parse_netlist(format, name, source, DelayInterval::fixed(delay))
        .ok_or_else(|| {
            ProtoError::new(ErrorCode::BadRequest, format!("unknown format `{format}`"))
        })?
        .map_err(|e| ProtoError::new(ErrorCode::InvalidNetlist, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";
    const TINY2: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
    const TINY3: &str = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";

    #[test]
    fn content_id_is_stable_and_discriminating() {
        let a = content_id("bench", 10, TINY);
        assert_eq!(a, content_id("bench", 10, TINY));
        assert_eq!(a.len(), 16);
        assert_ne!(a, content_id("bench", 10, TINY2));
        assert_ne!(a, content_id("bench", 11, TINY));
        assert_ne!(a, content_id("verilog", 10, TINY));
    }

    #[test]
    fn edit_records_use_u64_length_frames() {
        // Regression: a u32 length frame would alias a gate name of
        // length L with one of length L + 2^32 in `patched_id`. Pin the
        // full canonical layout so the frame width can't silently shrink.
        let bytes = edit_bytes(&EditSpec::SetDelay {
            gate: "g".to_string(),
            min: 3,
            max: 7,
        });
        let mut expect = vec![1u8];
        expect.extend_from_slice(&1u64.to_le_bytes());
        expect.push(b'g');
        expect.extend_from_slice(&3u32.to_le_bytes());
        expect.extend_from_slice(&7u32.to_le_bytes());
        assert_eq!(bytes, expect);

        let bytes = edit_bytes(&EditSpec::Rewire {
            gate: "gate".to_string(),
            inputs: vec!["a".to_string(), "bb".to_string()],
        });
        let mut expect = vec![2u8];
        expect.extend_from_slice(&4u64.to_le_bytes());
        expect.extend_from_slice(b"gate");
        expect.extend_from_slice(&2u64.to_le_bytes());
        expect.extend_from_slice(&1u64.to_le_bytes());
        expect.push(b'a');
        expect.extend_from_slice(&2u64.to_le_bytes());
        expect.extend_from_slice(b"bb");
        assert_eq!(bytes, expect);
    }

    #[test]
    fn register_then_lookup_by_id_and_name() {
        let registry = CircuitRegistry::new(4);
        let (entry, cached) = registry.register("tiny", "bench", TINY, 10).unwrap();
        assert!(!cached);
        assert_eq!(registry.lookup(&entry.id).unwrap().id, entry.id);
        assert_eq!(registry.lookup("tiny").unwrap().id, entry.id);
        assert!(registry.lookup("nope").is_err());
        assert_eq!(
            registry.lookup("nope").unwrap_err().code,
            ErrorCode::UnknownCircuit
        );
    }

    #[test]
    fn identical_content_is_a_hit_even_under_a_new_name() {
        let registry = CircuitRegistry::new(4);
        let (a, _) = registry.register("one", "bench", TINY, 10).unwrap();
        let (b, cached) = registry.register("two", "bench", TINY, 10).unwrap();
        assert!(cached);
        assert!(Arc::ptr_eq(&a, &b));
        // The alias name of the first registration still resolves; the
        // second name does not create a second entry.
        assert_eq!(registry.stats().entries, 1);
    }

    #[test]
    fn sessions_are_usable_and_shared() {
        let registry = CircuitRegistry::new(4);
        let (entry, _) = registry.register("tiny", "bench", TINY, 10).unwrap();
        let y = entry.circuit.outputs()[0];
        // NAND of two inputs: exact delay is one gate.
        assert!(entry.session.verify(y, 11).verdict.is_no_violation());
        assert!(entry.session.verify(y, 10).verdict.is_violation());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let registry = CircuitRegistry::new(2);
        registry.register("a", "bench", TINY, 10).unwrap();
        registry.register("b", "bench", TINY2, 10).unwrap();
        // Touch `a` so `b` is now coldest.
        registry.lookup("a").unwrap();
        registry.register("c", "bench", TINY3, 10).unwrap();
        assert!(registry.lookup("a").is_ok());
        assert!(registry.lookup("c").is_ok());
        assert!(registry.lookup("b").is_err());
        let stats = registry.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn evicted_entries_survive_while_held() {
        let registry = CircuitRegistry::new(1);
        let (held, _) = registry.register("a", "bench", TINY, 10).unwrap();
        registry.register("b", "bench", TINY2, 10).unwrap();
        assert!(registry.lookup("a").is_err(), "evicted from the registry");
        // …but the Arc we hold still works.
        let y = held.circuit.outputs()[0];
        assert!(held.session.verify(y, 11).verdict.is_no_violation());
    }

    #[test]
    fn parse_failures_are_classified() {
        let registry = CircuitRegistry::new(2);
        let err = registry
            .register("bad", "bench", "y = FROB(a)\n", 10)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::InvalidNetlist);
        let err = registry.register("bad", "vhdl", TINY, 10).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    fn set_delay(gate: &str, d: u32) -> EditSpec {
        EditSpec::SetDelay {
            gate: gate.into(),
            min: d,
            max: d,
        }
    }

    #[test]
    fn framed_fold_keeps_record_boundaries() {
        // The collision the length framing exists to prevent: the same
        // bytes split differently across records must hash differently.
        // An unframed fold would make these four streams identical.
        let s = FNV_OFFSET;
        let ab_c = fold_framed(s, [b"ab".as_slice(), b"c".as_slice()]);
        let a_bc = fold_framed(s, [b"a".as_slice(), b"bc".as_slice()]);
        let abc = fold_framed(s, [b"abc".as_slice()]);
        let a_b_c = fold_framed(s, [b"a".as_slice(), b"b".as_slice(), b"c".as_slice()]);
        assert_ne!(ab_c, a_bc);
        assert_ne!(ab_c, abc);
        assert_ne!(a_bc, abc);
        assert_ne!(a_b_c, abc);
        // And the fold is associative over records: folding a prefix, then
        // the rest, equals folding everything at once.
        let prefix = fold_framed(s, [b"ab".as_slice()]);
        assert_eq!(fold_framed(prefix, [b"c".as_slice()]), ab_c);
    }

    #[test]
    fn patched_id_is_incremental_and_discriminating() {
        let root = content_id("bench", 10, TINY);
        let e1 = set_delay("g1", 12);
        let e2 = set_delay("g2", 7);
        // Deterministic, 16 hex digits, distinct from the parent.
        let one = std::slice::from_ref(&e1);
        let other = std::slice::from_ref(&e2);
        let p = patched_id(&root, one);
        assert_eq!(p, patched_id(&root, one));
        assert_eq!(p.len(), 16);
        assert_ne!(p, root);
        // Chaining one edit at a time equals batching them.
        assert_eq!(
            patched_id(&patched_id(&root, one), other),
            patched_id(&root, &[e1.clone(), e2.clone()])
        );
        // Different edits, different ids; order matters (edits apply in
        // sequence, so [a,b] and [b,a] are different revisions).
        assert_ne!(patched_id(&root, one), patched_id(&root, other));
        assert_ne!(
            patched_id(&root, &[e1.clone(), e2.clone()]),
            patched_id(&root, &[e2, e1])
        );
        // Delay vs rewire on the same gate never collide (distinct tags),
        // and the gate/input split is framed: ("ab" -> [c]) != ("a" -> [bc]).
        let rw = |g: &str, i: &str| EditSpec::Rewire {
            gate: g.into(),
            inputs: vec![i.into()],
        };
        assert_ne!(
            patched_id(&root, &[set_delay("g1", 1)]),
            patched_id(&root, &[rw("g1", "a")])
        );
        assert_ne!(
            patched_id(&root, &[rw("ab", "c")]),
            patched_id(&root, &[rw("a", "bc")])
        );
    }

    #[test]
    fn patch_registers_a_rebased_revision() {
        let registry = CircuitRegistry::new(8);
        let (parent, _) = registry.register("tiny", "bench", TINY, 10).unwrap();
        let y = parent.circuit.outputs()[0];
        // Warm the parent's result cache with an exact answer.
        let safe = parent.session.verify(y, 11);
        parent.cache_reports(Engine::Narrow, [&safe]);
        let outcome = registry.patch("tiny", None, &[set_delay("y", 20)]).unwrap();
        assert!(!outcome.resident);
        assert!(!outcome.structural);
        assert_eq!(outcome.dirty, vec!["y".to_string()]);
        // The single output's cone is the whole (dirty) circuit: nothing
        // transplants, and the patched session sees the new delay.
        assert_eq!(outcome.transplanted, 0);
        assert!(outcome.entry.session.verify(y, 20).verdict.is_violation());
        assert!(outcome
            .entry
            .session
            .verify(y, 21)
            .verdict
            .is_no_violation());
        // The patched id resolves; the parent's name still names the parent.
        assert_eq!(
            registry.lookup(&outcome.entry.id).unwrap().id,
            outcome.entry.id
        );
        assert_eq!(registry.lookup("tiny").unwrap().id, parent.id);
        // Re-patching with the same edits is a resident hit.
        let again = registry.patch("tiny", None, &[set_delay("y", 20)]).unwrap();
        assert!(again.resident);
        assert!(Arc::ptr_eq(&again.entry, &outcome.entry));
        // Unknown gate / primary input are bad requests; unknown circuit
        // keeps its own code.
        assert_eq!(
            registry
                .patch("tiny", None, &[set_delay("zzz", 1)])
                .unwrap_err()
                .code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            registry
                .patch("tiny", None, &[set_delay("a", 1)])
                .unwrap_err()
                .code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            registry
                .patch("nope", None, &[set_delay("y", 1)])
                .unwrap_err()
                .code,
            ErrorCode::UnknownCircuit
        );
    }

    #[test]
    fn patch_transplants_reports_for_untouched_cones() {
        // Two independent cones: y = NAND(a,b), z = NOT(c). Editing y's
        // gate must carry z's cached exact report over to the patched
        // entry — and leave y's behind.
        let two =
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\ny = NAND(a, b)\nz = NOT(c)\n";
        let registry = CircuitRegistry::new(8);
        let (parent, _) = registry.register("two", "bench", two, 10).unwrap();
        let y = parent.circuit.outputs()[0];
        let z = parent.circuit.outputs()[1];
        let ry = parent.session.verify(y, 11);
        let rz = parent.session.verify(z, 11);
        parent.cache_reports(Engine::Narrow, [&ry, &rz]);
        assert_eq!(parent.cached_results(), 2);
        let outcome = registry
            .patch("two", Some("two-v2"), &[set_delay("y", 25)])
            .unwrap();
        assert_eq!(outcome.transplanted, 1);
        let cached = outcome
            .entry
            .cached_report(Engine::Narrow, z, 11)
            .expect("z transplanted");
        assert_eq!(cached.verdict, rz.verdict);
        assert_eq!(cached.effort, rz.effort);
        assert!(outcome.entry.cached_report(Engine::Narrow, y, 11).is_none());
        // The transplanted report is bit-identical to a fresh run on the
        // patched entry (the §14 contract the transplant leans on).
        let fresh = outcome.entry.session.verify(z, 11);
        assert_eq!(cached.verdict, fresh.verdict);
        assert_eq!(cached.effort, fresh.effort);
        assert_eq!(cached.backtracks(), fresh.backtracks());
        // The alias name resolves to the patched revision.
        assert_eq!(registry.lookup("two-v2").unwrap().id, outcome.entry.id);
        // A structural rewire transplants nothing.
        let rewired = registry
            .patch(
                "two",
                None,
                &[EditSpec::Rewire {
                    gate: "y".into(),
                    inputs: vec!["b".into(), "a".into()],
                }],
            )
            .unwrap();
        assert!(rewired.structural);
        assert_eq!(rewired.transplanted, 0);
    }

    #[test]
    fn stats_and_hit_rate() {
        let registry = CircuitRegistry::new(2);
        assert_eq!(registry.stats().hit_rate(), None);
        registry.register("a", "bench", TINY, 10).unwrap(); // miss
        registry.lookup("a").unwrap(); // hit
        registry.lookup("a").unwrap(); // hit
        let _ = registry.lookup("zzz"); // miss
        let stats = registry.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hit_rate(), Some(0.5));
    }
}
