//! The compiled flat match structure the datapath evaluates.
//!
//! Compilation turns one tenant's ordered rule list into per-dimension
//! lookup tables, each mapping a request attribute to a bitmask of
//! candidate rules:
//!
//! * source IP, destination port and workload identity — disjoint-interval
//!   segment tables (`IntervalTable`): the rule ranges are cut into
//!   non-overlapping segments once at compile time, so a lookup is one
//!   binary search over the segment boundaries.
//! * HTTP method and SNI — exact-match maps, plus a label-boundary suffix
//!   map for wildcard SNI (`SniTable`).
//! * path prefix — a byte trie whose nodes carry ancestor-cumulative rule
//!   sets (`PathTrie`): the deepest node reached on a walk already holds
//!   every rule whose prefix covers the path.
//! * header predicates — fixed slots ([`crate::MAX_HEADER_PREDICATES`]); slot `j`
//!   auto-admits every rule with at most `j` predicates, so rules with
//!   fewer predicates than the maximum impose no constraint there.
//!
//! A verdict is the AND of the dimension masks followed by
//! first-set-bit (first-match-wins), so per-request cost is O(log n)
//! searches plus O(n/64) word operations — never a per-rule scan. The top
//! level of [`CompiledPolicySet`] is keyed by [`TenantId`]: a packet
//! selects its own tenant's table before any rule bit is consulted, which
//! makes cross-tenant matches structurally impossible even when VPC
//! address spaces overlap.

use crate::spec::{
    validate_tenant, verdict_tag, L4Ctx, L7Ctx, PolicyRejection, PolicySpec, PolicyVerdict,
    SniMatch, TenantPolicy,
};
use canal_net::TenantId;
use canal_sim::Digest;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// What the node L4 path can conclude without seeing the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L4Verdict {
    /// No candidate rule needs L7 context; the flow is admitted.
    Allow,
    /// No candidate rule needs L7 context; the flow is rejected.
    Deny,
    /// The first candidate rule carries L7 predicates — the verdict must
    /// be deferred to the gateway L7 path.
    NeedsL7,
}

/// A fixed-width bitmask over one tenant's rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSet {
    /// 64-bit words, lowest rule index in bit 0 of word 0.
    words: Vec<u64>,
    /// Number of valid bits (the tenant's rule count).
    bits: usize,
}

impl RuleSet {
    /// All-zero mask over `bits` rules.
    pub fn empty(bits: usize) -> Self {
        RuleSet { words: vec![0; bits.div_ceil(64)], bits }
    }

    /// All-ones mask over `bits` rules (tail bits kept clear).
    pub fn full(bits: usize) -> Self {
        let mut s = RuleSet { words: vec![u64::MAX; bits.div_ceil(64)], bits };
        let tail = bits % 64;
        if tail != 0 {
            if let Some(last) = s.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        s
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize) {
        if i < self.bits {
            self.words[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Whether bit `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        i < self.bits && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// OR another mask in.
    pub fn or_with(&mut self, other: &RuleSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Lowest set bit — the first-match-wins winner.
    pub fn first_set(&self) -> Option<usize> {
        first_set_of(self.words.iter().copied())
    }

    /// Number of 64-bit words (the per-AND cost unit).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Fold the mask into a digest.
    pub fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.bits as u64);
        for &w in &self.words {
            d.write_u64(w);
        }
    }
}

/// Lowest set bit over a stream of mask words.
fn first_set_of(words: impl Iterator<Item = u64>) -> Option<usize> {
    words
        .enumerate()
        .find(|&(_, w)| w != 0)
        .map(|(wi, w)| wi * 64 + w.trailing_zeros() as usize)
}

/// `m &= s`, word by word.
fn and_words(m: &mut [u64], s: &[u64]) {
    for (w, o) in m.iter_mut().zip(s) {
        *w &= o;
    }
}

/// `m |= s`, word by word.
fn or_words(m: &mut [u64], s: &[u64]) {
    for (w, o) in m.iter_mut().zip(s) {
        *w |= o;
    }
}

/// The lowercase form of a header name, borrowed when it already is.
fn lowercase(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// Disjoint-interval segment table: rule ranges cut into non-overlapping
/// segments at compile time, looked up with one binary search.
#[derive(Debug, Clone)]
struct IntervalTable {
    /// Segment start keys, ascending; `bounds[0] == 0` always.
    bounds: Vec<u64>,
    /// Candidate rules per segment, parallel to `bounds`.
    segs: Vec<RuleSet>,
}

impl IntervalTable {
    /// Build from per-rule inclusive ranges; an empty range list means the
    /// rule matches any key in this dimension.
    fn build(n: usize, per_rule: &[Vec<(u64, u64)>]) -> IntervalTable {
        let mut cuts: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        cuts.insert(0);
        for ranges in per_rule {
            for &(lo, hi) in ranges {
                cuts.insert(lo);
                if hi < u64::MAX {
                    cuts.insert(hi + 1);
                }
            }
        }
        let bounds: Vec<u64> = cuts.into_iter().collect();
        let mut segs = vec![RuleSet::empty(n); bounds.len()];
        for (i, ranges) in per_rule.iter().enumerate() {
            if ranges.is_empty() {
                for seg in &mut segs {
                    seg.set(i);
                }
                continue;
            }
            for &(lo, hi) in ranges {
                if lo > hi {
                    continue;
                }
                let mut s = bounds.partition_point(|b| *b <= lo).saturating_sub(1);
                while s < bounds.len() && bounds[s] <= hi {
                    segs[s].set(i);
                    s += 1;
                }
            }
        }
        IntervalTable { bounds, segs }
    }

    /// The candidate set for one key: binary search over segment starts.
    fn lookup(&self, key: u64) -> &RuleSet {
        let idx = self.bounds.partition_point(|b| *b <= key).saturating_sub(1);
        &self.segs[idx]
    }

    /// Comparisons one lookup costs: `ceil(log2(segments))`.
    fn search_ops(&self) -> u64 {
        u64::from((self.bounds.len().max(1) as u64).ilog2()) + 1
    }

    fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.bounds.len() as u64);
        for &b in &self.bounds {
            d.write_u64(b);
        }
        for s in &self.segs {
            s.fold_digest(d);
        }
    }
}

/// Exact-match dimension table (HTTP method): `any` admits rules without a
/// constraint here, the map admits rules keyed by token.
#[derive(Debug, Clone)]
struct MapTable {
    any: RuleSet,
    exact: BTreeMap<String, RuleSet>,
}

impl MapTable {
    /// `m &= any | exact[key]`, in place.
    fn and_into(&self, m: &mut [u64], key: &str) {
        match self.exact.get(key) {
            Some(e) => {
                for ((w, a), x) in m.iter_mut().zip(&self.any.words).zip(&e.words) {
                    *w &= a | x;
                }
            }
            None => and_words(m, &self.any.words),
        }
    }

    fn search_ops(&self) -> u64 {
        u64::from((self.exact.len().max(1) as u64).ilog2()) + 1
    }

    fn fold_digest(&self, d: &mut Digest) {
        self.any.fold_digest(d);
        d.write_u64(self.exact.len() as u64);
        for (k, v) in &self.exact {
            d.write_str(k);
            v.fold_digest(d);
        }
    }
}

/// SNI dimension: exact server names plus label-boundary wildcard
/// suffixes (`.example.com` matches `a.example.com`, not `example.com`).
#[derive(Debug, Clone)]
struct SniTable {
    any: RuleSet,
    exact: BTreeMap<String, RuleSet>,
    suffix: BTreeMap<String, RuleSet>,
}

impl SniTable {
    /// `m &= any | exact[sni] | suffix[..]`, in place; `scratch` (the
    /// mask's width) holds the union.
    fn and_into(&self, m: &mut [u64], scratch: &mut [u64], sni: Option<&str>) {
        scratch.copy_from_slice(&self.any.words);
        if let Some(name) = sni {
            if let Some(e) = self.exact.get(name) {
                or_words(scratch, &e.words);
            }
            if !self.suffix.is_empty() {
                for (i, c) in name.char_indices() {
                    if c == '.' {
                        if let Some(s) = self.suffix.get(&name[i..]) {
                            or_words(scratch, &s.words);
                        }
                    }
                }
            }
        }
        and_words(m, scratch);
    }

    /// One exact probe plus one probe per label boundary (bounded by the
    /// name length; budgeted here at the DNS label max of 8 boundaries).
    fn search_ops(&self) -> u64 {
        let per = u64::from(((self.exact.len() + self.suffix.len()).max(1) as u64).ilog2()) + 1;
        per * 9
    }

    fn fold_digest(&self, d: &mut Digest) {
        self.any.fold_digest(d);
        d.write_u64(self.exact.len() as u64);
        for (k, v) in &self.exact {
            d.write_str(k);
            v.fold_digest(d);
        }
        d.write_u64(self.suffix.len() as u64);
        for (k, v) in &self.suffix {
            d.write_str(k);
            v.fold_digest(d);
        }
    }
}

/// One path-trie node: byte-labelled children plus the ancestor-cumulative
/// candidate set (every rule whose prefix covers paths through this node).
#[derive(Debug, Clone)]
struct PathNode {
    children: BTreeMap<u8, usize>,
    cum: RuleSet,
}

/// Path-prefix byte trie; the deepest node reached on a walk already
/// holds the full candidate set, so no backtracking is needed.
#[derive(Debug, Clone)]
struct PathTrie {
    nodes: Vec<PathNode>,
}

impl PathTrie {
    /// Build from `(rule index, prefix)` pairs; an empty prefix matches
    /// every path (lands in the root's cumulative set).
    fn build(n: usize, prefixes: &[(usize, &str)]) -> PathTrie {
        let mut nodes = vec![PathNode { children: BTreeMap::new(), cum: RuleSet::empty(n) }];
        for &(i, prefix) in prefixes {
            let mut cur = 0usize;
            for &b in prefix.as_bytes() {
                let next = match nodes[cur].children.get(&b) {
                    Some(&c) => c,
                    None => {
                        let c = nodes.len();
                        nodes.push(PathNode { children: BTreeMap::new(), cum: RuleSet::empty(n) });
                        nodes[cur].children.insert(b, c);
                        c
                    }
                };
                cur = next;
            }
            nodes[cur].cum.set(i);
        }
        // Children are always created after their parent, so an in-order
        // pass pushes ancestor sets down in one sweep.
        for i in 0..nodes.len() {
            let parent = nodes[i].cum.clone();
            let kids: Vec<usize> = nodes[i].children.values().copied().collect();
            for k in kids {
                nodes[k].cum.or_with(&parent);
            }
        }
        PathTrie { nodes }
    }

    fn lookup(&self, path: &str) -> &RuleSet {
        let mut cur = 0usize;
        for &b in path.as_bytes() {
            match self.nodes[cur].children.get(&b) {
                Some(&c) => cur = c,
                None => break,
            }
        }
        &self.nodes[cur].cum
    }

    /// A walk costs at most one map probe per prefix byte.
    fn search_ops(&self) -> u64 {
        crate::spec::MAX_PATH_PREFIX_BYTES as u64
    }

    fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.nodes.len() as u64);
        for node in &self.nodes {
            d.write_u64(node.children.len() as u64);
            for (&b, &c) in &node.children {
                d.write_u64(b as u64).write_u64(c as u64);
            }
            node.cum.fold_digest(d);
        }
    }
}

/// One header-predicate slot: `auto` admits rules with fewer predicates
/// than this slot's index; the maps admit rules whose slot predicate is
/// satisfied by some request header.
#[derive(Debug, Clone)]
struct HeaderSlot {
    auto: RuleSet,
    /// Presence-only predicates, keyed by lowercase header name.
    present: BTreeMap<String, RuleSet>,
    /// Name+value predicates: lowercase name, then value.
    exact: BTreeMap<String, BTreeMap<String, RuleSet>>,
}

impl HeaderSlot {
    /// OR into `acc` the rules this slot admits for one request header
    /// (`name` already lowercase).
    fn admit(&self, acc: &mut [u64], name: &str, value: &str) {
        if let Some(p) = self.present.get(name) {
            or_words(acc, &p.words);
        }
        if let Some(e) = self.exact.get(name).and_then(|values| values.get(value)) {
            or_words(acc, &e.words);
        }
    }

    /// Number of (name, value) predicates.
    fn exact_pairs(&self) -> usize {
        self.exact.values().map(BTreeMap::len).sum()
    }

    fn search_ops(&self) -> u64 {
        u64::from(((self.present.len() + self.exact_pairs()).max(1) as u64).ilog2()) + 1
    }

    fn fold_digest(&self, d: &mut Digest) {
        self.auto.fold_digest(d);
        d.write_u64(self.present.len() as u64);
        for (k, v) in &self.present {
            d.write_str(k);
            v.fold_digest(d);
        }
        d.write_u64(self.exact_pairs() as u64);
        for (k, values) in &self.exact {
            for (val, v) in values {
                d.write_str(k).write_str(val);
                v.fold_digest(d);
            }
        }
    }
}

/// One tenant's rules compiled into flat dimension tables.
#[derive(Debug, Clone)]
pub struct CompiledTenant {
    /// Rule count.
    n: usize,
    /// Per-rule verdicts, indexed by rule position.
    actions: Vec<PolicyVerdict>,
    /// Rules carrying L7 predicates (undecidable on the node L4 path).
    l7_rules: RuleSet,
    src: IntervalTable,
    ports: IntervalTable,
    idents: IntervalTable,
    methods: MapTable,
    path: PathTrie,
    sni: SniTable,
    headers: Vec<HeaderSlot>,
    default_action: PolicyVerdict,
}

impl CompiledTenant {
    /// The compiled form of a rule-free policy: every lookup yields
    /// `default_action`. Infallible, unlike [`CompiledTenant::compile`].
    pub fn empty(default_action: PolicyVerdict) -> CompiledTenant {
        CompiledTenant {
            n: 0,
            actions: Vec::new(),
            l7_rules: RuleSet::empty(0),
            src: IntervalTable::build(0, &[]),
            ports: IntervalTable::build(0, &[]),
            idents: IntervalTable::build(0, &[]),
            methods: MapTable { any: RuleSet::empty(0), exact: BTreeMap::new() },
            path: PathTrie::build(0, &[]),
            sni: SniTable {
                any: RuleSet::empty(0),
                exact: BTreeMap::new(),
                suffix: BTreeMap::new(),
            },
            headers: Vec::new(),
            default_action,
        }
    }

    /// Compile one tenant policy; validation failures reject the whole
    /// spec (the caller NACKs, nothing is partially applied).
    pub fn compile(tp: &TenantPolicy) -> Result<CompiledTenant, PolicyRejection> {
        validate_tenant(tp)?;
        let n = tp.rules.len();
        let mut actions = Vec::with_capacity(n);
        let mut l7_rules = RuleSet::empty(n);
        let mut src_ranges = Vec::with_capacity(n);
        let mut port_ranges = Vec::with_capacity(n);
        let mut ident_ranges = Vec::with_capacity(n);
        let mut method_any = RuleSet::empty(n);
        let mut method_exact: BTreeMap<String, RuleSet> = BTreeMap::new();
        let mut prefixes: Vec<(usize, &str)> = Vec::new();
        let mut sni_any = RuleSet::empty(n);
        let mut sni_exact: BTreeMap<String, RuleSet> = BTreeMap::new();
        let mut sni_suffix: BTreeMap<String, RuleSet> = BTreeMap::new();
        let mut slots: Vec<HeaderSlot> = (0..crate::spec::MAX_HEADER_PREDICATES)
            .map(|_| HeaderSlot {
                auto: RuleSet::empty(n),
                present: BTreeMap::new(),
                exact: BTreeMap::new(),
            })
            .collect();

        for (i, r) in tp.rules.iter().enumerate() {
            actions.push(r.action);
            if r.has_l7_predicates() {
                l7_rules.set(i);
            }
            src_ranges.push(match r.source_cidr {
                Some(c) => {
                    let (lo, hi) = c.range();
                    vec![(lo as u64, hi as u64)]
                }
                None => Vec::new(),
            });
            port_ranges.push(match r.dest_ports {
                Some(p) => vec![(p.lo as u64, p.hi as u64)],
                None => Vec::new(),
            });
            ident_ranges.push(r.source_identities.iter().map(|&id| (id, id)).collect());
            if r.methods.is_empty() {
                method_any.set(i);
            } else {
                for m in &r.methods {
                    method_exact.entry(m.clone()).or_insert_with(|| RuleSet::empty(n)).set(i);
                }
            }
            prefixes.push((i, r.path_prefix.as_str()));
            match &r.sni {
                None => sni_any.set(i),
                Some(SniMatch::Exact(s)) => {
                    sni_exact.entry(s.clone()).or_insert_with(|| RuleSet::empty(n)).set(i);
                }
                Some(SniMatch::Suffix(s)) => {
                    sni_suffix.entry(s.clone()).or_insert_with(|| RuleSet::empty(n)).set(i);
                }
            }
            // Canonical predicate order makes the slot assignment (and the
            // digest) independent of how the operator listed headers.
            let mut preds: Vec<(String, Option<&String>)> = r
                .headers
                .iter()
                .map(|h| (h.name.to_ascii_lowercase(), h.value.as_ref()))
                .collect();
            preds.sort();
            for (j, slot) in slots.iter_mut().enumerate() {
                match preds.get(j) {
                    None => slot.auto.set(i),
                    Some((name, None)) => {
                        slot.present
                            .entry(name.clone())
                            .or_insert_with(|| RuleSet::empty(n))
                            .set(i);
                    }
                    Some((name, Some(v))) => {
                        slot.exact
                            .entry(name.clone())
                            .or_default()
                            .entry((*v).clone())
                            .or_insert_with(|| RuleSet::empty(n))
                            .set(i);
                    }
                }
            }
        }

        Ok(CompiledTenant {
            n,
            actions,
            l7_rules,
            src: IntervalTable::build(n, &src_ranges),
            ports: IntervalTable::build(n, &port_ranges),
            idents: IntervalTable::build(n, &ident_ranges),
            methods: MapTable { any: method_any, exact: method_exact },
            path: PathTrie::build(n, &prefixes),
            sni: SniTable { any: sni_any, exact: sni_exact, suffix: sni_suffix },
            headers: slots,
            default_action: tp.default_action,
        })
    }

    /// Candidate mask words from the L4 dimensions alone.
    fn l4_words<'a>(&'a self, ctx: &L4Ctx) -> impl Iterator<Item = u64> + 'a {
        let src = self.src.lookup(ctx.src_ip as u64);
        let ports = self.ports.lookup(ctx.dst_port as u64);
        let idents = self.idents.lookup(ctx.identity);
        src.words
            .iter()
            .zip(&ports.words)
            .zip(&idents.words)
            .map(|((s, p), i)| s & p & i)
    }

    /// The node L4 path's verdict. The full L7 match mask is always a
    /// subset of the L4 mask (L7 dimensions only narrow it), so an empty
    /// L4 candidate set means the default verdict is final.
    pub fn l4_verdict(&self, ctx: &L4Ctx) -> L4Verdict {
        match first_set_of(self.l4_words(ctx)) {
            None => match self.default_action {
                PolicyVerdict::Allow => L4Verdict::Allow,
                PolicyVerdict::Deny => L4Verdict::Deny,
            },
            Some(i) if self.l7_rules.contains(i) => L4Verdict::NeedsL7,
            Some(i) => match self.actions[i] {
                PolicyVerdict::Allow => L4Verdict::Allow,
                PolicyVerdict::Deny => L4Verdict::Deny,
            },
        }
    }

    /// Index of the first matching rule under full L4+L7 context.
    ///
    /// Each dimension is ANDed into one running mask in place. The only
    /// allocation is one scratch buffer per request, plus a lowercase copy
    /// of any header name that is not lowercase already.
    pub fn l7_match(&self, l4: &L4Ctx, l7: &L7Ctx<'_>) -> Option<usize> {
        let w = self.l7_rules.word_count();
        if w == 0 {
            return None;
        }
        // The running mask, then one union accumulator per header slot
        // (the first doubles as the SNI union).
        let mut scratch = vec![0u64; w * (1 + self.headers.len().max(1))];
        let (m, acc) = scratch.split_at_mut(w);
        for (dst, src) in m.iter_mut().zip(self.l4_words(l4)) {
            *dst = src;
        }
        self.methods.and_into(m, l7.method);
        and_words(m, &self.path.lookup(l7.path).words);
        self.sni.and_into(m, &mut acc[..w], l7.sni);
        if !self.headers.is_empty() {
            for (slot, a) in self.headers.iter().zip(acc.chunks_exact_mut(w)) {
                a.copy_from_slice(&slot.auto.words);
            }
            for &(name, value) in l7.headers {
                let name = lowercase(name);
                for (slot, a) in self.headers.iter().zip(acc.chunks_exact_mut(w)) {
                    slot.admit(a, &name, value);
                }
            }
            for a in acc.chunks_exact(w) {
                and_words(m, a);
            }
        }
        first_set_of(m.iter().copied())
    }

    /// The gateway L7 path's verdict.
    pub fn l7_verdict(&self, l4: &L4Ctx, l7: &L7Ctx<'_>) -> PolicyVerdict {
        match self.l7_match(l4, l7) {
            Some(i) => self.actions[i],
            None => self.default_action,
        }
    }

    /// Number of rules compiled in.
    pub fn rule_count(&self) -> usize {
        self.n
    }

    /// Deterministic per-lookup cost bound: binary-search comparisons per
    /// dimension plus the bitmask word operations — compare against the
    /// reference matcher's O(rules) scan.
    pub fn lookup_ops(&self) -> u64 {
        let searches = self.src.search_ops()
            + self.ports.search_ops()
            + self.idents.search_ops()
            + self.methods.search_ops()
            + self.path.search_ops()
            + self.sni.search_ops()
            + self.headers.iter().map(HeaderSlot::search_ops).sum::<u64>();
        let dims = 6 + self.headers.len() as u64;
        searches + dims * self.l7_rules.word_count().max(1) as u64
    }

    /// Fold every compiled table into a digest.
    pub fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.n as u64);
        for &a in &self.actions {
            d.write_u64(verdict_tag(a));
        }
        self.l7_rules.fold_digest(d);
        self.src.fold_digest(d);
        self.ports.fold_digest(d);
        self.idents.fold_digest(d);
        self.methods.fold_digest(d);
        self.path.fold_digest(d);
        self.sni.fold_digest(d);
        d.write_u64(self.headers.len() as u64);
        for slot in &self.headers {
            slot.fold_digest(d);
        }
        d.write_u64(verdict_tag(self.default_action));
    }
}

/// A whole compiled spec: per-tenant tables keyed by [`TenantId`]. A
/// lookup selects the caller's tenant first, so no rule bit of another
/// tenant is ever consulted — isolation is structural.
#[derive(Debug, Clone)]
pub struct CompiledPolicySet {
    version: u64,
    tenants: BTreeMap<TenantId, CompiledTenant>,
}

impl CompiledPolicySet {
    /// Validate and compile a full spec; any rejection NACKs the whole
    /// push.
    pub fn compile(spec: &PolicySpec) -> Result<CompiledPolicySet, PolicyRejection> {
        let mut tenants = BTreeMap::new();
        for tp in &spec.tenants {
            if tenants.contains_key(&tp.tenant) {
                return Err(PolicyRejection::DuplicateTenant(tp.tenant));
            }
            tenants.insert(tp.tenant, CompiledTenant::compile(tp)?);
        }
        Ok(CompiledPolicySet { version: spec.version, tenants })
    }

    /// An empty set at version 0 (deny-all for every tenant).
    pub fn empty() -> CompiledPolicySet {
        CompiledPolicySet { version: 0, tenants: BTreeMap::new() }
    }

    /// The spec version this was compiled from.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// One tenant's compiled table.
    pub fn tenant(&self, t: TenantId) -> Option<&CompiledTenant> {
        self.tenants.get(&t)
    }

    /// Total rules across tenants.
    pub fn rule_count(&self) -> usize {
        self.tenants.values().map(CompiledTenant::rule_count).sum()
    }

    /// Node L4 verdict; a tenant with no policy is denied (zero trust).
    pub fn l4_verdict(&self, ctx: &L4Ctx) -> L4Verdict {
        match self.tenants.get(&ctx.tenant) {
            Some(t) => t.l4_verdict(ctx),
            None => L4Verdict::Deny,
        }
    }

    /// Gateway L7 match; `None` when no rule of the caller's tenant
    /// matches (or the tenant has no policy).
    pub fn l7_match(&self, l4: &L4Ctx, l7: &L7Ctx<'_>) -> Option<usize> {
        self.tenants.get(&l4.tenant).and_then(|t| t.l7_match(l4, l7))
    }

    /// Gateway L7 verdict; a tenant with no policy is denied (zero trust).
    pub fn l7_verdict(&self, l4: &L4Ctx, l7: &L7Ctx<'_>) -> PolicyVerdict {
        match self.tenants.get(&l4.tenant) {
            Some(t) => t.l7_verdict(l4, l7),
            None => PolicyVerdict::Deny,
        }
    }

    /// Fold every tenant table into a digest.
    pub fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.version).write_u64(self.tenants.len() as u64);
        for (t, c) in &self.tenants {
            d.write_u64(t.0 as u64);
            c.fold_digest(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Cidr, PolicyRule, SniMatch};
    use canal_net::VpcId;

    fn l4(tenant: u32, src_ip: u32, dst_port: u16, identity: u64) -> L4Ctx {
        L4Ctx { tenant: TenantId(tenant), vpc: VpcId(tenant), src_ip, dst_port, identity }
    }

    fn tenant_policy(rules: Vec<PolicyRule>) -> TenantPolicy {
        TenantPolicy {
            tenant: TenantId(1),
            vpc: VpcId(1),
            rules,
            default_action: PolicyVerdict::Deny,
        }
    }

    #[test]
    fn ruleset_first_set_and_tail_masking() {
        let mut s = RuleSet::empty(70);
        assert_eq!(s.first_set(), None);
        s.set(65);
        s.set(3);
        assert_eq!(s.first_set(), Some(3));
        assert!(s.contains(65));
        let f = RuleSet::full(70);
        assert!(f.contains(69));
        assert!(!f.contains(70));
    }

    #[test]
    fn l4_only_rules_decide_on_the_node_path() {
        let tp = tenant_policy(vec![
            PolicyRule::deny().with_source_cidr(Cidr::new(0x0A00_C800, 24)), // 10.0.200.0/24
            PolicyRule::allow(),
        ]);
        let c = CompiledTenant::compile(&tp).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(c.l4_verdict(&l4(1, 0x0A00_C805, 80, 0)), L4Verdict::Deny);
        assert_eq!(c.l4_verdict(&l4(1, 0x0A00_0105, 80, 0)), L4Verdict::Allow);
    }

    #[test]
    fn l7_rules_defer_the_node_path() {
        let tp = tenant_policy(vec![
            PolicyRule::deny().with_method("DELETE").with_path_prefix("/admin"),
            PolicyRule::allow(),
        ]);
        let c = CompiledTenant::compile(&tp).unwrap_or_else(|e| panic!("{e}"));
        // Rule 0 is an L4 candidate for every flow, so L4 must defer.
        assert_eq!(c.l4_verdict(&l4(1, 1, 80, 0)), L4Verdict::NeedsL7);
        assert_eq!(
            c.l7_verdict(&l4(1, 1, 80, 0), &L7Ctx::new("DELETE", "/admin/users")),
            PolicyVerdict::Deny
        );
        assert_eq!(
            c.l7_verdict(&l4(1, 1, 80, 0), &L7Ctx::new("GET", "/admin/users")),
            PolicyVerdict::Allow
        );
        assert_eq!(
            c.l7_verdict(&l4(1, 1, 80, 0), &L7Ctx::new("DELETE", "/api")),
            PolicyVerdict::Allow
        );
    }

    #[test]
    fn first_match_wins_over_later_rules() {
        let tp = tenant_policy(vec![
            PolicyRule::allow().with_ports(80, 80),
            PolicyRule::deny().with_ports(1, 1024),
        ]);
        let c = CompiledTenant::compile(&tp).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(c.l4_verdict(&l4(1, 1, 80, 0)), L4Verdict::Allow);
        assert_eq!(c.l4_verdict(&l4(1, 1, 443, 0)), L4Verdict::Deny);
        assert_eq!(c.l4_verdict(&l4(1, 1, 2048, 0)), L4Verdict::Deny, "default deny");
    }

    #[test]
    fn sni_suffix_matches_on_label_boundaries_only() {
        let tp = tenant_policy(vec![
            PolicyRule::allow().with_sni(SniMatch::Suffix(".example.com".to_string())),
        ]);
        let c = CompiledTenant::compile(&tp).unwrap_or_else(|e| panic!("{e}"));
        let ctx = l4(1, 1, 443, 0);
        let l7 = |sni: &'static str| L7Ctx { method: "GET", path: "/", sni: Some(sni), headers: &[] };
        assert_eq!(c.l7_verdict(&ctx, &l7("a.example.com")), PolicyVerdict::Allow);
        assert_eq!(c.l7_verdict(&ctx, &l7("b.a.example.com")), PolicyVerdict::Allow);
        assert_eq!(c.l7_verdict(&ctx, &l7("example.com")), PolicyVerdict::Deny);
        assert_eq!(c.l7_verdict(&ctx, &l7("evilexample.com")), PolicyVerdict::Deny);
    }

    #[test]
    fn header_predicates_all_must_hold() {
        let tp = tenant_policy(vec![PolicyRule::allow()
            .with_header("x-team", Some("infra"))
            .with_header("x-trace", None)]);
        let c = CompiledTenant::compile(&tp).unwrap_or_else(|e| panic!("{e}"));
        let ctx = l4(1, 1, 80, 0);
        let verdict = |h: &[(&str, &str)]| {
            c.l7_verdict(&ctx, &L7Ctx { method: "GET", path: "/", sni: None, headers: h })
        };
        assert_eq!(verdict(&[("X-Team", "infra"), ("X-Trace", "1")]), PolicyVerdict::Allow);
        assert_eq!(verdict(&[("X-Team", "infra")]), PolicyVerdict::Deny);
        assert_eq!(verdict(&[("X-Team", "other"), ("X-Trace", "1")]), PolicyVerdict::Deny);
    }

    #[test]
    fn identity_dimension_gates_rules() {
        let tp = tenant_policy(vec![PolicyRule::allow().with_identities(&[100, 200])]);
        let c = CompiledTenant::compile(&tp).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(c.l4_verdict(&l4(1, 1, 80, 100)), L4Verdict::Allow);
        assert_eq!(c.l4_verdict(&l4(1, 1, 80, 200)), L4Verdict::Allow);
        assert_eq!(c.l4_verdict(&l4(1, 1, 80, 150)), L4Verdict::Deny);
    }

    #[test]
    fn unknown_tenant_is_denied() {
        let spec = PolicySpec { version: 1, tenants: vec![tenant_policy(vec![PolicyRule::allow()])] };
        let set = CompiledPolicySet::compile(&spec).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(set.l4_verdict(&l4(1, 1, 80, 0)), L4Verdict::Allow);
        assert_eq!(set.l4_verdict(&l4(9, 1, 80, 0)), L4Verdict::Deny);
        assert_eq!(
            set.l7_verdict(&l4(9, 1, 80, 0), &L7Ctx::new("GET", "/")),
            PolicyVerdict::Deny
        );
    }

    #[test]
    fn compile_digest_is_stable_and_content_sensitive() {
        let spec = PolicySpec {
            version: 3,
            tenants: vec![tenant_policy(vec![
                PolicyRule::deny().with_path_prefix("/admin"),
                PolicyRule::allow(),
            ])],
        };
        let a = CompiledPolicySet::compile(&spec).unwrap_or_else(|e| panic!("{e}"));
        let b = CompiledPolicySet::compile(&spec).unwrap_or_else(|e| panic!("{e}"));
        let mut da = Digest::new();
        a.fold_digest(&mut da);
        let mut db = Digest::new();
        b.fold_digest(&mut db);
        assert_eq!(da.value(), db.value());

        let mut spec2 = spec.clone();
        spec2.tenants[0].rules[0].path_prefix = "/api".to_string();
        let c = CompiledPolicySet::compile(&spec2).unwrap_or_else(|e| panic!("{e}"));
        let mut dc = Digest::new();
        c.fold_digest(&mut dc);
        assert_ne!(da.value(), dc.value());
    }

    #[test]
    fn lookup_ops_stay_logarithmic_in_rule_count() {
        let mut rules = Vec::new();
        for i in 0..1024u32 {
            rules.push(
                PolicyRule::allow()
                    .with_source_cidr(Cidr::new(0x0A00_0000 | (i << 8), 24))
                    .with_ports(1000, 1000 + (i % 64) as u16),
            );
        }
        let tp = tenant_policy(rules);
        let c = CompiledTenant::compile(&tp).unwrap_or_else(|e| panic!("{e}"));
        // Reference cost is one predicate check per rule; compiled cost is
        // binary searches plus word ops and must be well under that.
        assert!(c.lookup_ops() < 1024 / 2, "lookup_ops = {}", c.lookup_ops());
    }
}
