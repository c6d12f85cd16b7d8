//! KV-cache residency: the one module that decides which requests hold KV
//! blocks, and how many.
//!
//! [`KvCacheManager`] owns the block pool ([`BlockPool`] with its
//! [`crate::PrefixIndex`]), the [`KvCachePolicy`], and every request's
//! residency: whether it is admitted and, under the paged policy, its block
//! table. The engine asks it for one operation per residency effect of an
//! iteration — admit the queue front, grow the decode set (preempting when
//! the pool runs out), adopt a migrated-in chain, index newly computed
//! blocks, truncate after a speculative rollback, release a finished
//! request, export a chain, group shared-prefix decodes — and each operation
//! holds the only `match` on the policy.
//!
//! * **Conservative** (Sarathi-Serve's no-preemption rule) reserves a
//!   request's whole prompt + output at admission as anonymous blocks:
//!   interchangeable, never indexed, pure O(1) accounting against the
//!   pool's capacity. This is also the standalone token-count API
//!   ([`reserve`](KvCacheManager::reserve) /
//!   [`release`](KvCacheManager::release)) of [`KvCacheManager::new`].
//! * **Paged** allocates real blocks for the prompt, grows them one decode
//!   token at a time, and preempts the newest decode when the pool runs
//!   out. With prefix caching, prompts are matched against the radix index
//!   so shared prefixes skip prefill (copy-on-write on divergence, LRU
//!   eviction of dead prefixes).
//!
//! The two never mix on one manager, and the type enforces it: the
//! policy-specific state lives in the variants of a private enum, so a
//! conservative manager has no block tables and a paged one has no
//! anonymous reservations (its [`reserve`](KvCacheManager::reserve) panics).

use crate::blocks::{blocks_for, BlockId, BlockPool, Cursor, KvChain, BLOCK_TOKENS};
use crate::engine::AdmissionPolicy;
use crate::request::{Request, RequestSpec};
use crate::scheduler::{AdmissionDecision, BatchPlan};
use crate::trace::{emit, TraceEventKind, TraceRecorder};
use std::collections::{HashMap, VecDeque};

/// How the engine manages KV-cache residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvCachePolicy {
    /// Sarathi-Serve's conservative rule: a request is admitted only when
    /// its full prompt **plus expected output** fits, and is never preempted.
    /// The historical default; golden tests pin it bit-for-bit.
    Conservative,
    /// Paged residency over the block subsystem ([`crate::BlockPool`]):
    /// admission allocates blocks for the prompt only, decode tokens grow
    /// the allocation on demand, and when growth exhausts the pool the most
    /// recently started decode is preempted (swap-out) and later restored by
    /// recomputing its KV.
    Paged {
        /// Whether prompts are matched against the radix prefix index so
        /// shared prefixes skip prefill (with copy-on-write on divergence
        /// and LRU eviction of dead prefixes). With this off, the paged
        /// policy is pure on-demand paging + preemption.
        prefix_caching: bool,
    },
}

impl KvCachePolicy {
    /// Report-label fragment (empty for the conservative default).
    pub fn label_suffix(&self) -> &'static str {
        match self {
            KvCachePolicy::Conservative => "",
            KvCachePolicy::Paged {
                prefix_caching: false,
            } => "+paged",
            KvCachePolicy::Paged {
                prefix_caching: true,
            } => "+prefix",
        }
    }

    /// Whether this policy runs the prefix index.
    pub fn prefix_caching(&self) -> bool {
        matches!(
            self,
            KvCachePolicy::Paged {
                prefix_caching: true
            }
        )
    }
}

/// Per-request paged-KV state: its block table and how far its chain is
/// registered in the prefix index.
#[derive(Debug, Clone, Default)]
struct RequestKv {
    /// Blocks backing this request's context, in stream order. The leading
    /// `shared` entries were acquired from the prefix cache.
    blocks: Vec<BlockId>,
    /// Trie position after the last indexed block.
    cursor: Cursor,
    /// Leading blocks registered in the prefix index (shared or own).
    indexed: usize,
    /// Leading blocks acquired from the cache at admission.
    shared: usize,
    /// Indexing hit an existing equal chain (a concurrent identical prompt
    /// won the race), or the chain was adopted from another replica (block
    /// contents are pool-local, so it cannot be proven equal to anything
    /// indexed here); further blocks stay private.
    index_stalled: bool,
}

/// The policy-specific half of a manager.
#[derive(Debug, Clone)]
enum Mode {
    /// Blocks held by anonymous token-count reservations.
    Conservative { reserved_blocks: usize },
    /// Per-request block tables, parallel to the engine's request records.
    Paged {
        prefix_caching: bool,
        /// Prefix-shared decode grouping (CoDec-style KV dedup); only ever
        /// on together with `prefix_caching`.
        dedup: bool,
        tables: Vec<RequestKv>,
    },
}

/// Residency counters, reported under the same names in
/// [`crate::ServingReport`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KvCounters {
    pub(crate) cached_prefix_tokens: usize,
    pub(crate) blocks_reused: usize,
    pub(crate) cow_copies: usize,
    pub(crate) decode_kv_tokens_deduped: usize,
    pub(crate) preemptions: usize,
}

/// The engine state a preempting operation touches besides the cache: the
/// request records, both queues, and the flight recorder at the current
/// clock.
pub(crate) struct Queues<'a> {
    pub(crate) requests: &'a mut [Request],
    pub(crate) waiting: &'a mut VecDeque<usize>,
    pub(crate) running: &'a mut Vec<usize>,
    pub(crate) recorder: &'a mut Option<TraceRecorder>,
    pub(crate) now: f64,
}

/// Tracks KV-cache residency on one GPU (replicated across the
/// tensor-parallel group, so one GPU's capacity is the binding constraint).
#[derive(Debug, Clone)]
pub struct KvCacheManager {
    pool: BlockPool,
    mode: Mode,
    /// Whether each request (by engine id) holds residency.
    admitted: Vec<bool>,
    pub(crate) counters: KvCounters,
}

impl KvCacheManager {
    /// A conservative manager with capacity for `capacity_tokens` tokens,
    /// driven through the token-count API.
    ///
    /// Capacity that is not a whole multiple of [`BLOCK_TOKENS`] is
    /// **rounded down** to the nearest block boundary: a partial block
    /// cannot hold a KV page, so `new(1000)` yields
    /// `capacity_tokens() == 992` (62 blocks), not 1000.
    pub fn new(capacity_tokens: usize) -> Self {
        KvCacheManager::with_policy(capacity_tokens, KvCachePolicy::Conservative, false)
    }

    /// A manager under `policy`. `dedup` turns on prefix-shared decode
    /// grouping, which needs the prefix index and is ignored without it.
    pub(crate) fn with_policy(capacity_tokens: usize, policy: KvCachePolicy, dedup: bool) -> Self {
        let mode = match policy {
            KvCachePolicy::Conservative => Mode::Conservative { reserved_blocks: 0 },
            KvCachePolicy::Paged { prefix_caching } => Mode::Paged {
                prefix_caching,
                dedup: dedup && prefix_caching,
                tables: Vec::new(),
            },
        };
        KvCacheManager {
            pool: BlockPool::new(capacity_tokens),
            mode,
            admitted: Vec::new(),
            counters: KvCounters::default(),
        }
    }

    /// Blocks referenced by live requests.
    fn used_blocks(&self) -> usize {
        let reserved = match self.mode {
            Mode::Conservative { reserved_blocks } => reserved_blocks,
            Mode::Paged { .. } => 0,
        };
        reserved + self.pool.referenced_blocks()
    }

    /// Total capacity in tokens (rounded down to whole blocks; see
    /// [`KvCacheManager::new`]).
    pub fn capacity_tokens(&self) -> usize {
        self.pool.capacity_blocks() * BLOCK_TOKENS
    }

    /// Tokens currently reserved by live requests.
    pub fn used_tokens(&self) -> usize {
        self.used_blocks() * BLOCK_TOKENS
    }

    /// Tokens still available: free blocks plus cached prefixes that
    /// eviction can reclaim (under the conservative policy nothing is ever
    /// cached, so this is exactly capacity minus used).
    pub fn free_tokens(&self) -> usize {
        (self.pool.capacity_blocks() - self.used_blocks()) * BLOCK_TOKENS
    }

    /// Whether a reservation of `tokens` tokens would fit right now.
    pub fn can_reserve(&self, tokens: usize) -> bool {
        self.used_blocks() + blocks_for(tokens) <= self.pool.capacity_blocks()
    }

    /// Reserve `tokens` tokens. Returns `false` (and reserves nothing) if the
    /// cache does not have room.
    ///
    /// # Panics
    ///
    /// Panics on a paged manager: anonymous reservations belong to the
    /// conservative policy only.
    pub fn reserve(&mut self, tokens: usize) -> bool {
        let capacity_blocks = self.pool.capacity_blocks();
        let Mode::Conservative { reserved_blocks } = &mut self.mode else {
            panic!("token reservations need the conservative policy");
        };
        try_reserve(reserved_blocks, capacity_blocks, tokens)
    }

    /// Release a reservation of `tokens` tokens.
    ///
    /// # Panics
    ///
    /// Panics if more tokens are released than are currently reserved, which
    /// would indicate an accounting bug in the engine, and on a paged
    /// manager.
    pub fn release(&mut self, tokens: usize) {
        let Mode::Conservative { reserved_blocks } = &mut self.mode else {
            panic!("token reservations need the conservative policy");
        };
        unreserve(reserved_blocks, tokens);
    }

    /// Fraction of the cache currently referenced by live requests.
    pub fn utilization(&self) -> f64 {
        if self.pool.capacity_blocks() == 0 {
            return 0.0;
        }
        self.used_blocks() as f64 / self.pool.capacity_blocks() as f64
    }

    /// Prompt tokens of `spec` the prefix index could satisfy right now,
    /// without touching any state (router affinity probes). Zero unless the
    /// policy caches prefixes.
    pub fn cached_prefix_tokens(&self, spec: &RequestSpec) -> usize {
        match self.mode {
            Mode::Paged {
                prefix_caching: true,
                ..
            } => self
                .pool
                .peek_prefix(spec.content, spec.prompt_tokens.saturating_sub(1)),
            _ => 0,
        }
    }

    /// Cached blocks evicted over the manager's lifetime.
    pub fn blocks_evicted(&self) -> usize {
        self.pool.blocks_evicted()
    }

    // ----- per-request residency operations (the engine's iteration) -----

    /// Open an empty residency slot for a newly submitted request (engine
    /// ids are dense, so slot `i` belongs to request `i`).
    pub(crate) fn register(&mut self) {
        self.admitted.push(false);
        if let Mode::Paged { tables, .. } = &mut self.mode {
            tables.push(RequestKv::default());
        }
    }

    /// Whether request `rid` holds residency (admitted and not yet released,
    /// preempted or exported).
    pub(crate) fn is_admitted(&self, rid: usize) -> bool {
        self.admitted[rid]
    }

    /// Length of the waiting queue's admitted (mid-prefill) prefix.
    pub(crate) fn admitted_prefix(&self, waiting: &VecDeque<usize>) -> usize {
        waiting.iter().take_while(|&&r| self.admitted[r]).count()
    }

    /// Admission for the scheduler's queue front: shed a hopeless request,
    /// defer one that cannot fit, or admit it — reserving prompt + output
    /// (conservative) or matching its prompt against the prefix index and
    /// allocating blocks for the uncached rest (paged). Records the Admit,
    /// KvAlloc and Defer trace events and the admission counters.
    pub(crate) fn admit(
        &mut self,
        req: &Request,
        admission: AdmissionPolicy,
        now: f64,
        recorder: &mut Option<TraceRecorder>,
    ) -> AdmissionDecision {
        if self.admitted[req.id] {
            return AdmissionDecision::Admit { cached_tokens: 0 };
        }
        if admission.should_shed(req, now) {
            return AdmissionDecision::Shed;
        }
        let capacity_blocks = self.pool.capacity_blocks();
        let admitted = match &mut self.mode {
            Mode::Conservative { reserved_blocks } => {
                let fits = try_reserve(reserved_blocks, capacity_blocks, req.spec.total_tokens());
                if fits {
                    emit(recorder, now, || TraceEventKind::Admit {
                        request: req.id,
                        cached_tokens: 0,
                    });
                }
                fits.then_some(0)
            }
            // Feasibility: to *finish*, the request must at some point hold
            // blocks for its whole prompt + output. Admitting one that never
            // can would decode until growth exhausts the pool and then
            // preempt/recompute forever; deferring it surfaces the same
            // Blocked outcome (with the same total-tokens sizing number) the
            // conservative policy reports.
            Mode::Paged { .. } if blocks_for(req.spec.total_tokens()) > capacity_blocks => None,
            Mode::Paged {
                prefix_caching,
                tables,
                ..
            } => {
                // Match the prompt (or, after a preemption, the full
                // recompute target) against the prefix index, capped one
                // below the target so at least one token is always
                // computed; then allocate the uncached rest.
                let target = req.target_prefill();
                let m = if *prefix_caching {
                    self.pool.acquire_prefix(req.spec.content, target - 1)
                } else {
                    Default::default()
                };
                // Allocate for the prefill target *plus the first decode
                // token after it*: completing the prefill mints that token,
                // and without room for its KV a restored request
                // self-preempts forever — the preemption frees exactly the
                // blocks re-admission then re-allocates, while (under the
                // vLLM scheduler) the restore prefill pauses every other
                // decode, so nothing ever progresses. Requiring the extra
                // block up front turns that livelock into a Defer, letting
                // the running decodes drain and free real capacity. Still
                // within the feasibility bound: target + 1 <= prompt +
                // output.
                let needed = blocks_for(target + 1) - m.blocks.len();
                let admitted = match self.pool.alloc(needed) {
                    Some(fresh) => {
                        let c = &mut self.counters;
                        c.cached_prefix_tokens += m.cached_tokens;
                        c.blocks_reused += m.blocks.len();
                        c.cow_copies += usize::from(m.cow_source.is_some());
                        let (reused, cow) = (m.blocks.len(), m.cow_source.is_some());
                        emit(recorder, now, || TraceEventKind::Admit {
                            request: req.id,
                            cached_tokens: m.cached_tokens,
                        });
                        emit(recorder, now, || TraceEventKind::KvAlloc {
                            request: req.id,
                            blocks: needed,
                            reused,
                            cow,
                        });
                        let table = &mut tables[req.id];
                        table.shared = m.blocks.len();
                        table.indexed = m.blocks.len();
                        table.cursor = m.cursor;
                        table.blocks = m.blocks;
                        table.blocks.extend(fresh);
                        Some(m.cached_tokens)
                    }
                    None => {
                        // Roll back the prefix acquisition; the request
                        // retries next iteration.
                        self.pool.release(&m.blocks);
                        None
                    }
                };
                // The CoW source was pinned by acquire_prefix so the
                // allocation above could not evict it mid-admission; the
                // copy has now happened (or the admission was rolled back),
                // so drop the pin either way.
                if let Some(cow) = m.cow_source {
                    self.pool.release(&[cow]);
                }
                admitted
            }
        };
        match admitted {
            Some(cached_tokens) => {
                self.admitted[req.id] = true;
                AdmissionDecision::Admit { cached_tokens }
            }
            None => {
                emit(recorder, now, || TraceEventKind::Defer { request: req.id });
                AdmissionDecision::Defer
            }
        }
    }

    /// Give every request that will decode this iteration — the first
    /// `decode_cap` of the running set — blocks for its next token, or in
    /// speculative mode for its whole drafted width of up to `spec_k` tokens
    /// (the rejected tail is released by [`KvCacheManager::truncate`]).
    /// When the pool runs out, the most recently started decode is
    /// preempted (LIFO: the youngest decode loses the least recomputation);
    /// if that is the very request being grown, it preempts itself. A no-op
    /// under the conservative policy, which reserved everything up front.
    pub(crate) fn grow_decodes(&mut self, q: &mut Queues<'_>, decode_cap: usize, spec_k: usize) {
        let Mode::Paged { tables, .. } = &mut self.mode else {
            return;
        };
        let mut i = 0;
        while i < q.running.len().min(decode_cap) {
            let rid = q.running[i];
            let req = &q.requests[rid];
            let needed = blocks_for(req.context_len() + req.spec_width(spec_k));
            let held = tables[rid].blocks.len();
            if held >= needed {
                i += 1;
                continue;
            }
            match self.pool.alloc(needed - held) {
                Some(fresh) => {
                    tables[rid].blocks.extend(fresh);
                    i += 1;
                }
                None => {
                    let victim = *q.running.last().expect("rid is in running");
                    let c = &mut self.counters;
                    preempt(&mut self.pool, tables, &mut self.admitted, c, victim, q);
                }
            }
        }
    }

    /// Priority preemption for the waiting-queue front: while the block pool
    /// blocks its admission, evict running decodes of strictly lower
    /// priority (lowest class first, most recently started among equals)
    /// and charge each eviction to the front's
    /// [`Request::preemptions_inflicted`]. Returns whether anything was
    /// preempted. Acts only for an unadmitted front that could fit in an
    /// empty pool, and never under the conservative policy (it has no
    /// preemption path).
    pub(crate) fn preempt_for_front(&mut self, q: &mut Queues<'_>) -> bool {
        let Mode::Paged { tables, .. } = &mut self.mode else {
            return false;
        };
        // Only act for the schedulable front: an admitted (mid-prefill)
        // request ahead of the candidate owns the prefill slot, and evicting
        // decodes for a request that cannot be consulted yet wastes work.
        let Some(&cand) = q.waiting.front() else {
            return false;
        };
        if self.admitted[cand]
            || blocks_for(q.requests[cand].spec.total_tokens()) > self.pool.capacity_blocks()
        {
            return false;
        }
        let pri = q.requests[cand].spec.priority;
        // Same sizing as paged admission: the prefill target plus the first
        // decode token it mints (prefix-cache hits can only shrink this, so
        // the check may over-evict by at most the cached share).
        let needed = blocks_for(q.requests[cand].target_prefill() + 1) * BLOCK_TOKENS;
        let mut any = false;
        let pool = &mut self.pool;
        while (pool.capacity_blocks() - pool.referenced_blocks()) * BLOCK_TOKENS < needed {
            let victim = q
                .running
                .iter()
                .rev()
                .filter(|&&r| q.requests[r].spec.priority < pri)
                .min_by_key(|&&r| q.requests[r].spec.priority)
                .copied();
            let Some(v) = victim else {
                break;
            };
            preempt(pool, tables, &mut self.admitted, &mut self.counters, v, q);
            q.requests[cand].preemptions_inflicted += 1;
            any = true;
        }
        any
    }

    /// Take residency for a migrated-in request whose chain has arrived:
    /// reserve its prompt + output (conservative) or re-materialize the
    /// chain with room for the next minted token (paged). On success the
    /// request's slot is opened as admitted, so the caller must give it the
    /// next engine id; on failure nothing changes.
    pub(crate) fn adopt(&mut self, req: &Request, chain: KvChain) -> bool {
        let capacity_blocks = self.pool.capacity_blocks();
        let adopted = match &mut self.mode {
            Mode::Conservative { reserved_blocks } => {
                try_reserve(reserved_blocks, capacity_blocks, req.spec.total_tokens())
            }
            Mode::Paged { tables, .. } => {
                // Mirror paged admission's +1 rule: room for the chain plus
                // the next minted token, so a fresh import cannot
                // immediately preempt itself on first growth.
                let blocks = blocks_for(req.context_len() + 1).max(chain.blocks);
                let chain = KvChain {
                    tokens: chain.tokens,
                    blocks,
                };
                match self.pool.adopt_chain(chain) {
                    Some(blocks) => {
                        tables.push(RequestKv {
                            blocks,
                            index_stalled: true,
                            ..RequestKv::default()
                        });
                        true
                    }
                    None => false,
                }
            }
        };
        if adopted {
            self.admitted.push(true);
        }
        adopted
    }

    /// Register `req`'s newly computed full blocks in the prefix index
    /// (no-op without prefix caching, for opaque content, or once indexing
    /// stalled on an existing equal chain).
    fn index_computed(&mut self, req: &Request) {
        let Mode::Paged {
            prefix_caching: true,
            tables,
            ..
        } = &mut self.mode
        else {
            return;
        };
        let table = &mut tables[req.id];
        if !req.spec.content.is_shareable() || table.index_stalled {
            return;
        }
        let computed_full = (req.context_len() / BLOCK_TOKENS).min(table.blocks.len());
        if computed_full > table.indexed {
            let want = computed_full - table.indexed;
            let (cursor, registered) = self.pool.extend_index(
                table.cursor,
                req.spec.content,
                table.indexed,
                &table.blocks[table.indexed..computed_full],
            );
            table.cursor = cursor;
            table.indexed += registered;
            table.index_stalled = registered < want;
        }
    }

    /// Index the blocks this iteration computed for every planned request
    /// that is still running (finished ones are indexed on release).
    pub(crate) fn index_iteration(
        &mut self,
        plan: &BatchPlan,
        finished: &[usize],
        requests: &[Request],
    ) {
        if !matches!(
            self.mode,
            Mode::Paged {
                prefix_caching: true,
                ..
            }
        ) {
            return;
        }
        for &rid in plan.prefill.iter().map(|(rid, _)| rid).chain(&plan.decodes) {
            if !finished.contains(&rid) {
                self.index_computed(&requests[rid]);
            }
        }
    }

    /// Release the blocks a speculative rollback stranded past `req`'s
    /// context. They were allocated by this iteration's speculative growth
    /// and are never indexed or shared, so truncation conserves refcounts.
    /// A no-op under the conservative policy.
    pub(crate) fn truncate(&mut self, req: &Request) {
        let Mode::Paged { tables, .. } = &mut self.mode else {
            return;
        };
        let table = &mut tables[req.id];
        let keep = blocks_for(req.context_len())
            .max(table.indexed)
            .max(table.shared);
        if table.blocks.len() > keep {
            let tail = table.blocks.split_off(keep);
            self.pool.release(&tail);
        }
    }

    /// Release a finished request's residency. Under prefix caching its
    /// decode region is indexed first, so multi-turn follow-ups whose
    /// prompts embed this response hit the cache; indexed blocks stay
    /// cached until evicted.
    pub(crate) fn release_finished(
        &mut self,
        req: &Request,
        recorder: &mut Option<TraceRecorder>,
        now: f64,
    ) {
        self.index_computed(req);
        if let Some(blocks) = self.vacate(req) {
            emit(recorder, now, || TraceEventKind::KvFree {
                request: req.id,
                blocks: blocks.len(),
            });
            self.pool.release(&blocks);
        }
    }

    /// Serialize `req`'s resident context into a chain for a cross-replica
    /// handoff and release it here (indexed blocks stay cached for future
    /// sharers).
    pub(crate) fn export(&mut self, req: &Request) -> KvChain {
        let tokens = req.context_len();
        match self.vacate(req) {
            Some(blocks) => self.pool.export_chain(&blocks, tokens),
            None => KvChain {
                tokens,
                blocks: blocks_for(tokens),
            },
        }
    }

    /// Drop `req`'s residency: return its anonymous reservation
    /// (conservative, `None`), or take its block table for the caller to
    /// release or export (paged).
    fn vacate(&mut self, req: &Request) -> Option<Vec<BlockId>> {
        let was_admitted = std::mem::replace(&mut self.admitted[req.id], false);
        match &mut self.mode {
            Mode::Conservative { reserved_blocks } => {
                if was_admitted {
                    unreserve(reserved_blocks, req.spec.total_tokens());
                }
                None
            }
            Mode::Paged { tables, .. } => Some(std::mem::take(&mut tables[req.id]).blocks),
        }
    }

    /// Co-batching hint for prefix-shared decode: stably reorder `running`
    /// so requests holding the same shared-prefix block chain sit
    /// contiguously, in order of each group's first member. Requests with no
    /// shared blocks are singleton groups at their own positions, so the
    /// permutation is the identity unless at least two residents actually
    /// share a chain. Runs *before* decode growth and planning, so the
    /// growth set, the Sarathi decode cap and the LIFO preemption victim all
    /// see the co-batched order. A no-op unless dedup is on.
    pub(crate) fn cobatch(&self, running: &mut Vec<usize>) {
        let Mode::Paged {
            dedup: true,
            tables,
            ..
        } = &self.mode
        else {
            return;
        };
        if running.len() < 2 {
            return;
        }
        let mut group_of: HashMap<&[BlockId], usize> = HashMap::new();
        let mut next_group = 0usize;
        let mut ranked: Vec<(usize, usize, usize)> = Vec::with_capacity(running.len());
        for (i, &rid) in running.iter().enumerate() {
            let table = &tables[rid];
            let group = if table.shared == 0 {
                next_group += 1;
                next_group - 1
            } else {
                *group_of
                    .entry(&table.blocks[..table.shared])
                    .or_insert_with(|| {
                        next_group += 1;
                        next_group - 1
                    })
            };
            ranked.push((group, i, rid));
        }
        // Lexicographic (group, original position): stable by construction.
        ranked.sort_unstable();
        *running = ranked.into_iter().map(|(_, _, rid)| rid).collect();
    }

    /// Shared-prefix dedup of this iteration's decode set: group `decodes`
    /// by their shared-block chains and return the decode KV tokens the
    /// grouped pass does **not** re-read — `(members − 1) × shared tokens`
    /// over chains held by at least two decodes (requests whose admission
    /// acquired no cached blocks never group). Counts the tokens and records
    /// a KvDedup event when any are saved. Zero unless dedup is on.
    pub(crate) fn dedup(
        &mut self,
        decodes: &[usize],
        recorder: &mut Option<TraceRecorder>,
        now: f64,
    ) -> usize {
        let Mode::Paged {
            dedup: true,
            tables,
            ..
        } = &self.mode
        else {
            return 0;
        };
        if decodes.is_empty() {
            return 0;
        }
        let mut chains: HashMap<&[BlockId], usize> = HashMap::new();
        for &rid in decodes {
            let table = &tables[rid];
            if table.shared > 0 {
                *chains.entry(&table.blocks[..table.shared]).or_insert(0) += 1;
            }
        }
        let (mut groups, mut tokens) = (0usize, 0usize);
        for (chain, members) in chains {
            if members > 1 {
                groups += 1;
                tokens += (members - 1) * chain.len() * BLOCK_TOKENS;
            }
        }
        if tokens > 0 {
            self.counters.decode_kv_tokens_deduped += tokens;
            emit(recorder, now, || TraceEventKind::KvDedup { groups, tokens });
        }
        tokens
    }
}

/// Reserve `tokens` worth of anonymous blocks if they fit under
/// `capacity_blocks`.
fn try_reserve(reserved_blocks: &mut usize, capacity_blocks: usize, tokens: usize) -> bool {
    let needed = blocks_for(tokens);
    let fits = *reserved_blocks + needed <= capacity_blocks;
    if fits {
        *reserved_blocks += needed;
    }
    fits
}

/// Return `tokens` worth of anonymous blocks to a conservative reservation.
fn unreserve(reserved_blocks: &mut usize, tokens: usize) {
    let blocks = blocks_for(tokens);
    assert!(
        blocks <= *reserved_blocks,
        "releasing {blocks} blocks but only {reserved_blocks} are in use"
    );
    *reserved_blocks -= blocks;
}

/// Preempt decoding request `rid`: reclaim its blocks (indexed ones stay
/// cached for its own restore or other sharers), move it to the waiting
/// queue, and mark the full recompute it owes.
fn preempt(
    pool: &mut BlockPool,
    tables: &mut [RequestKv],
    admitted: &mut [bool],
    counters: &mut KvCounters,
    rid: usize,
    q: &mut Queues<'_>,
) {
    let table = std::mem::take(&mut tables[rid]);
    emit(q.recorder, q.now, || TraceEventKind::Preempt {
        request: rid,
    });
    let freed = table.blocks.len();
    emit(q.recorder, q.now, || TraceEventKind::KvFree {
        request: rid,
        blocks: freed,
    });
    pool.release(&table.blocks);
    q.requests[rid].preempt();
    q.running.retain(|&r| r != rid);
    admitted[rid] = false;
    // Re-queue ahead of unadmitted work but *behind* any already-admitted
    // (mid-prefill) request: that one holds blocks, and only the queue front
    // ever gets scheduled — parking an unadmittable victim in front of it
    // would starve the one request able to free capacity.
    let at = q.waiting.iter().take_while(|&&r| admitted[r]).count();
    q.waiting.insert(at, rid);
    counters.preemptions += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release_round_trip() {
        let mut kv = KvCacheManager::new(1024);
        assert_eq!(kv.capacity_tokens(), 1024);
        assert!(kv.reserve(100));
        assert_eq!(kv.used_tokens(), 112); // rounded up to 7 blocks
        kv.release(100);
        assert_eq!(kv.used_tokens(), 0);
    }

    #[test]
    fn admission_fails_when_full() {
        let mut kv = KvCacheManager::new(160);
        assert!(kv.reserve(128));
        assert!(!kv.can_reserve(64));
        assert!(!kv.reserve(64));
        assert!(kv.reserve(32));
        assert_eq!(kv.free_tokens(), 0);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let mut kv = KvCacheManager::new(320);
        assert_eq!(kv.utilization(), 0.0);
        kv.reserve(160);
        assert!((kv.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn over_release_panics() {
        let mut kv = KvCacheManager::new(320);
        kv.release(32);
    }

    #[test]
    fn blocks_round_up() {
        assert_eq!(blocks_for(1), 1);
        assert_eq!(blocks_for(16), 1);
        assert_eq!(blocks_for(17), 2);
    }

    /// Regression for the silent-truncation fix: capacity that is not a
    /// multiple of [`BLOCK_TOKENS`] rounds down explicitly, and every
    /// accounting quantity agrees with the rounded capacity.
    #[test]
    fn capacity_rounds_down_to_a_block_multiple() {
        for (given, expect) in [(1000, 992), (15, 0), (16, 16), (17, 16), (0, 0)] {
            let kv = KvCacheManager::new(given);
            assert_eq!(kv.capacity_tokens(), expect, "capacity_tokens({given})");
            assert_eq!(kv.free_tokens(), expect, "free_tokens({given})");
            assert_eq!(kv.capacity_tokens() % BLOCK_TOKENS, 0);
        }
        // A sub-block manager admits nothing, gracefully.
        let mut tiny = KvCacheManager::new(BLOCK_TOKENS - 1);
        assert!(!tiny.can_reserve(1));
        assert!(!tiny.reserve(1));
        assert_eq!(tiny.utilization(), 0.0);
    }

    /// The two policy halves never mix: a paged manager refuses anonymous
    /// token reservations.
    #[test]
    #[should_panic(expected = "conservative policy")]
    fn paged_managers_refuse_token_reservations() {
        let mut kv = KvCacheManager::with_policy(
            1024,
            KvCachePolicy::Paged {
                prefix_caching: false,
            },
            false,
        );
        kv.reserve(16);
    }

    /// Property: over arbitrary admit/free cycles, block accounting never
    /// leaks — used + free always equals capacity, a failed reserve changes
    /// nothing, and once every successful reservation is released the cache
    /// is exactly empty again.
    #[test]
    fn random_admit_free_cycles_never_leak_blocks() {
        let mut rng = crate::rng::SplitMix64::seed_from_u64(0xB10C5);
        for case in 0..50 {
            let capacity_tokens = (1 + rng.next_usize(64)) * BLOCK_TOKENS;
            let mut kv = KvCacheManager::new(capacity_tokens);
            let mut live: Vec<usize> = Vec::new();
            for step in 0..200 {
                let admit = live.is_empty() || rng.next_usize(2) == 0;
                if admit {
                    let tokens = 1 + rng.next_usize(capacity_tokens + 32);
                    let before_used = kv.used_tokens();
                    let fits = kv.can_reserve(tokens);
                    let reserved = kv.reserve(tokens);
                    assert_eq!(
                        fits, reserved,
                        "case {case} step {step}: can_reserve and reserve disagree"
                    );
                    if reserved {
                        live.push(tokens);
                    } else {
                        assert_eq!(
                            kv.used_tokens(),
                            before_used,
                            "case {case} step {step}: failed reserve must not change usage"
                        );
                    }
                } else {
                    let tokens = live.swap_remove(rng.next_usize(live.len()));
                    kv.release(tokens);
                }
                let expected_used: usize = live.iter().map(|&t| blocks_for(t) * BLOCK_TOKENS).sum();
                assert_eq!(
                    kv.used_tokens(),
                    expected_used,
                    "case {case} step {step}: usage must equal the live reservations"
                );
                assert_eq!(
                    kv.used_tokens() + kv.free_tokens(),
                    kv.capacity_tokens(),
                    "case {case} step {step}: used + free must equal capacity"
                );
                assert!(kv.utilization() <= 1.0);
            }
            for tokens in live.drain(..) {
                kv.release(tokens);
            }
            assert_eq!(kv.used_tokens(), 0, "case {case}: blocks leaked");
            assert_eq!(kv.utilization(), 0.0);
        }
    }
}
