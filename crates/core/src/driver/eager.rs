//! Munin-style eager update protocol.
//!
//! At every interval close the writer *pushes* its new diffs to every
//! node holding a copy. Readers rarely fault, but bandwidth scales with
//! the copyset — the comparison that motivated CVM's protocol work. An
//! adaptive copyset-pruning rule (drop a member after
//! [`PRUNE_AFTER_UNUSED`](crate::protocol::PRUNE_AFTER_UNUSED)
//! consecutive unused updates, as in Munin) keeps the protocol from
//! degenerating to broadcast.
//!
//! Faults still use the shared pull mechanism: a pruned or invalidated
//! node fetches lazily and thereby re-registers in the copyset.
//!
//! Pushes race with each other and with in-flight fetches, so a receiver
//! cannot blindly apply what arrives: a diff is applied only when the
//! copy already reflects everything the diff causally depends on (the
//! writer's previous diff of the page, and — carried in the push as
//! `base` — the version of the exact words the diff overwrites). A push
//! that arrives too early is *parked*, not dropped, and retried each
//! time the page's watermark advances; a push that arrives too late
//! (its sequence is already covered) is discarded. Without the `base`
//! guard, a delayed push chain let a node apply a newer diff first and
//! the recovery fetch then patched the missing *older* diff over it,
//! resurrecting overwritten words — the signature failure was a
//! lock-protected accumulator losing half its increments under
//! fault-injected reordering.

use std::collections::{BTreeMap, HashMap};

use cvm_sim::VirtualTime;

use crate::diff::{Diff, DIFF_WORD};
use crate::msg::Payload;
use crate::page::{PageId, PageState};
use crate::protocol::CopysetEntry;
use crate::trace::TraceEvent;

use super::{Coherence, DriverCore};

/// One pushed diff with the causal guards it travels with. One that
/// arrives before its predecessors is parked under its close sequence and
/// retried when the page's applied watermark advances.
struct Push {
    src: usize,
    tag: u32,
    diff: Diff,
    prev: u32,
    upto: u32,
    base: u64,
}

/// Per `(node, page)`: for every word of the page, the close sequence of
/// the last diff known to write it — applied there, or the node's own.
/// Lets a writer compute a new diff's causal `base` from true word
/// overlap rather than the whole-page watermark, which would impose false
/// dependencies between word-disjoint concurrent diffs of multi-writer
/// pages.
///
/// A page's entry is a dense `page_size / 8` array (the size of a twin),
/// allocated when the node first sees an eager diff of the page, and is
/// read and written a run at a time. Like the shared watermarks it is
/// compared with (`applied_gseq`, the diff cache), it outlives the
/// measurement reset.
#[derive(Default)]
struct WordVersions {
    /// Words in a page; set by `reset`, before any diff exists.
    page_words: usize,
    pages: HashMap<(usize, usize), Box<[u64]>>,
}

impl WordVersions {
    /// Records that the words `d` writes on node `n` now reflect the diff
    /// closed at `gseq`.
    fn note(&mut self, n: usize, d: &Diff, gseq: u64) {
        let vers = self
            .pages
            .entry((n, d.page.0))
            .or_insert_with(|| vec![0; self.page_words].into_boxed_slice());
        for run in d.word_runs() {
            for v in &mut vers[run] {
                *v = (*v).max(gseq);
            }
        }
    }

    /// Highest close sequence among diffs known on node `n` to write any
    /// word that `d` also writes — the overlap causal base.
    fn base(&self, n: usize, d: &Diff) -> u64 {
        let Some(vers) = self.pages.get(&(n, d.page.0)) else {
            return 0;
        };
        d.word_runs()
            .flat_map(|run| &vers[run])
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Forgets node `n`'s versions of `page`: the whole page was replaced
    /// by a copy of unknown word provenance, and stale versions would
    /// overstate what the node holds.
    fn clear(&mut self, n: usize, page: usize) {
        self.pages.remove(&(n, page));
    }
}

/// Eager update with adaptive copyset pruning.
///
/// The copysets are protocol-private state, driver-global as a stand-in
/// for the home-directory state a real system distributes.
#[derive(Default)]
pub(super) struct EagerUpdate {
    copysets: Vec<CopysetEntry>,
    /// Early pushes per `(node, page)`, ordered by close sequence.
    parked: HashMap<(usize, usize), BTreeMap<u64, Push>>,
    word_ver: WordVersions,
}

impl std::fmt::Debug for EagerUpdate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EagerUpdate")
            .field("copysets", &self.copysets.len())
            .field("parked", &self.parked.len())
            .field("word_ver", &self.word_ver.pages.len())
            .finish()
    }
}

/// Why a push could not be applied right now.
enum Refusal {
    /// Missing causal predecessors; worth retrying once they land.
    Early,
    /// Already covered or no copy to update; discard.
    Stale,
}

impl EagerUpdate {
    /// Applies one push if every guard passes. On refusal, says whether
    /// the push may still apply later (park it) or never will (drop it).
    fn try_apply(
        core: &mut DriverCore,
        vers: &mut WordVersions,
        n: usize,
        gseq: u64,
        push: &Push,
        t: VirtualTime,
    ) -> Result<(), Refusal> {
        let &Push {
            src,
            tag,
            diff: ref d,
            prev,
            upto,
            base,
        } = push;
        let page = d.page;
        let p = page.0;
        if core.ctl[n].fetches.contains_key(&p) {
            // A lazy fetch is in flight; let it win rather than risk
            // applying out of order — then retry when it completes (the
            // reply may or may not already include this diff).
            return Err(Refusal::Early);
        }
        if !core.cell(n).state[p].has_copy() {
            return Err(Refusal::Stale);
        }
        if gseq <= core.ctl[n].applied_gseq.get(&p).copied().unwrap_or(0) {
            // A causally *later* diff is already in: applying this one
            // would resurrect overwritten words. The fetch that got ahead
            // of us already carried this data.
            return Err(Refusal::Stale);
        }
        if core.ctl[n].applied_dtag(p, src) < prev {
            // Gap in the writer's own diff stream (an earlier push is
            // still in flight). Applying this one would let `upto` retire
            // notices whose data we never received.
            return Err(Refusal::Early);
        }
        if vers.base(n, d) < base {
            // The diff read-modify-wrote words whose versions we have not
            // applied. Accepting it would move our watermark past the
            // hole, and the recovery fetch would then patch the *older*
            // missing diff over this newer one — resurrecting overwritten
            // words (the classic lost-update under reordering). Compared
            // on the diff's own words, not the page watermark, so
            // word-disjoint concurrent diffs never block each other.
            return Err(Refusal::Early);
        }
        {
            let mut cell = core.cell(n);
            d.apply(cell.page_bytes_mut(p));
            // Keep a concurrent twin in step so our own next diff covers
            // only our own writes; otherwise the pushed words would be
            // re-diffed under our tag and overwrite the writer's later
            // updates on other copies.
            if let Some(twin) = cell.twin_mut(p) {
                d.apply(twin);
            }
        }
        core.stats.diffs_used += 1;
        let kd = (p, src);
        let e = core.ctl[n].applied_dtag.entry(kd).or_insert(0);
        *e = (*e).max(tag);
        core.ctl[n].applied_gseq.insert(p, gseq);
        vers.note(n, d, gseq);
        let e = core.ctl[n].applied_ivl.entry(kd).or_insert(0);
        *e = (*e).max(upto);
        if core.cfg.verify {
            core.trace.record(
                t,
                TraceEvent::DiffApplied {
                    node: n,
                    page,
                    writer: src,
                    upto,
                },
            );
        }
        // Retire satisfied notices and revalidate if nothing is pending
        // any more.
        let remaining = core.retire_pending(n, p);
        if !remaining {
            let mut cell = core.cell(n);
            if cell.state[p] == PageState::Invalid {
                cell.state[p] = PageState::ReadOnly;
            }
        }
        Ok(())
    }

    /// Retries parked pushes for `(n, p)` in close-sequence order after
    /// the page's watermark moved (a push applied or a fetch completed).
    /// Sequences the watermark has passed are discarded — their data
    /// arrived through the fetch.
    fn drain_parked(&mut self, core: &mut DriverCore, n: usize, p: usize, t: VirtualTime) {
        let Some(held) = self.parked.get_mut(&(n, p)) else {
            return;
        };
        loop {
            let applied = core.ctl[n].applied_gseq.get(&p).copied().unwrap_or(0);
            while let Some((&g, _)) = held.first_key_value() {
                if g > applied {
                    break;
                }
                held.remove(&g);
            }
            let Some((&gseq, _)) = held.first_key_value() else {
                break;
            };
            let push = held.get(&gseq).expect("just peeked");
            match Self::try_apply(core, &mut self.word_ver, n, gseq, push, t) {
                Ok(()) | Err(Refusal::Stale) => {
                    held.remove(&gseq);
                }
                Err(Refusal::Early) => break,
            }
        }
        if held.is_empty() {
            self.parked.remove(&(n, p));
        }
    }
}

impl Coherence for EagerUpdate {
    fn reset(&mut self, core: &mut DriverCore) {
        self.copysets = (0..core.cfg.pages())
            .map(|_| CopysetEntry::full(core.cfg.nodes))
            .collect();
        self.parked.clear();
        self.word_ver.page_words = core.cfg.page_size / DIFF_WORD;
    }

    /// At interval close, extract and push the new diff of every dirtied
    /// page to the page's copyset, pruning members that never touch the
    /// page between pushes (Munin's update timeout).
    fn on_interval_close(&mut self, core: &mut DriverCore, n: usize, pages: &[usize]) {
        let now = core.ctl[n].sched.clock;
        for &p in pages {
            let Some(entry) = core.ensure_extracted(n, p) else {
                continue;
            };
            // Tag of the diff before the one just extracted: the
            // receiver-side continuity check (never pruned, so the
            // second-to-last cache entry is authoritative).
            let prev = core.ctl[n]
                .diff_cache
                .get(&p)
                .and_then(|v| v.len().checked_sub(2).map(|i| v[i].0))
                .unwrap_or(0);
            let upto = core.ctl[n].log.latest();
            // Everything this diff causally depends on: the highest
            // version among the exact words it writes (a lock-protected
            // read-modify-write chains through here). Computed before the
            // diff's own words are recorded at its own close sequence.
            let base = self.word_ver.base(n, &entry.2);
            self.word_ver.note(n, &entry.2, entry.1);
            for target in self.copysets[p].push_targets(n) {
                if self.copysets[p].record_push(target) {
                    // Too many unused updates: drop the member. The
                    // notification stands in for the directory update a
                    // distributed implementation would send.
                    self.copysets[p].remove(target);
                    core.stats.copies_dropped += 1;
                    core.send_remote(
                        n,
                        target,
                        Payload::DropCopy {
                            page: PageId(p),
                            node: target,
                        },
                        now,
                    );
                } else {
                    core.stats.updates_pushed += 1;
                    core.trace.record(
                        now,
                        TraceEvent::UpdatePushed {
                            node: n,
                            page: PageId(p),
                            target,
                        },
                    );
                    core.send_remote(
                        n,
                        target,
                        Payload::UpdatePush {
                            page: PageId(p),
                            diff: entry.clone(),
                            prev,
                            upto,
                            base,
                        },
                        now,
                    );
                }
            }
        }
    }

    fn on_fault(&mut self, core: &mut DriverCore, n: usize, tid: usize, page: PageId, write: bool) {
        core.pull_fault(n, tid, page, write);
    }

    fn on_message(
        &mut self,
        core: &mut DriverCore,
        n: usize,
        src: usize,
        payload: Payload,
        t: VirtualTime,
    ) {
        match payload {
            Payload::UpdatePush {
                page,
                diff,
                prev,
                upto,
                base,
            } => {
                let p = page.0;
                let (tag, gseq, diff) = diff;
                let push = Push {
                    src,
                    tag,
                    diff,
                    prev,
                    upto,
                    base,
                };
                match Self::try_apply(core, &mut self.word_ver, n, gseq, &push, t) {
                    Ok(()) => self.drain_parked(core, n, p, t),
                    Err(Refusal::Early) => {
                        self.parked.entry((n, p)).or_default().insert(gseq, push);
                    }
                    Err(Refusal::Stale) => {}
                }
            }
            Payload::DropCopy { .. } => {
                // Informational: the writer stopped pushing to us. Our
                // copy stays valid until a write notice invalidates it;
                // the next fault re-registers us in the copyset.
            }
            other => {
                if let Some(fetched) = core.pull_message(n, src, other, t) {
                    let p = fetched.page;
                    if fetched.base_replaced {
                        self.word_ver.clear(n, p);
                    }
                    for (_, gseq, _, d) in &fetched.diffs {
                        self.word_ver.note(n, d, *gseq);
                    }
                    // The faulting node demonstrably uses the page:
                    // (re)join the copyset.
                    self.copysets[p].add(n);
                    self.copysets[p].record_use(n);
                    // The fetch moved the watermark; early pushes that
                    // were waiting on it may now apply.
                    self.drain_parked(core, n, p, t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::DiffRun;
    use cvm_sim::SimRng;

    const PAGE_WORDS: usize = 64;

    /// A diff of up to four ascending, disjoint runs; some empty, some
    /// ending on the page's last word.
    fn random_diff(rng: &mut SimRng, page: usize) -> Diff {
        let mut runs = Vec::new();
        let mut w = rng.below(24) as usize;
        for _ in 0..rng.below(5) {
            let len = 1 + rng.below(12) as usize;
            if w + len > PAGE_WORDS {
                break;
            }
            runs.push((w, len));
            w += len + 1 + rng.below(16) as usize;
        }
        if rng.below(4) == 0 && w < PAGE_WORDS {
            let len = 1 + rng.below((PAGE_WORDS - w) as u64) as usize;
            runs.push((PAGE_WORDS - len, len));
        }
        Diff {
            page: PageId(page),
            runs: runs
                .into_iter()
                .map(|(w0, len)| DiffRun {
                    offset: w0 * DIFF_WORD,
                    data: vec![0xAB; len * DIFF_WORD],
                })
                .collect(),
        }
    }

    /// The word-by-word table the dense one replaced.
    #[derive(Default)]
    struct Model(HashMap<(usize, usize, usize), u64>);

    impl Model {
        fn words(d: &Diff) -> impl Iterator<Item = usize> + '_ {
            d.word_runs().flatten()
        }
        fn note(&mut self, n: usize, d: &Diff, gseq: u64) {
            for w in Self::words(d) {
                let e = self.0.entry((n, d.page.0, w)).or_insert(0);
                *e = (*e).max(gseq);
            }
        }
        fn base(&self, n: usize, d: &Diff) -> u64 {
            Self::words(d)
                .map(|w| self.0.get(&(n, d.page.0, w)).copied().unwrap_or(0))
                .max()
                .unwrap_or(0)
        }
        fn clear(&mut self, n: usize, page: usize) {
            self.0.retain(|&(kn, kp, _), _| (kn, kp) != (n, page));
        }
    }

    #[test]
    fn dense_word_versions_match_the_word_by_word_model() {
        let mut rng = SimRng::seed_from(0x3A6E);
        let mut dense = WordVersions {
            page_words: PAGE_WORDS,
            ..Default::default()
        };
        let mut model = Model::default();
        let (mut empty, mut last_word, mut nonzero) = (0, 0, 0);
        for step in 0..2000u64 {
            let (n, page) = (rng.below(3) as usize, rng.below(4) as usize);
            let d = random_diff(&mut rng, page);
            empty += u64::from(d.is_empty());
            last_word += u64::from(d.word_runs().any(|r| r.end == PAGE_WORDS));
            let want = model.base(n, &d);
            assert_eq!(dense.base(n, &d), want, "step {step}: {d} on n{n}");
            nonzero += u64::from(want > 0);
            match rng.below(10) {
                0 => {
                    dense.clear(n, page);
                    model.clear(n, page);
                }
                // Mostly rising, as close sequences are; sometimes an
                // older diff lands late and must not lower a word.
                _ => {
                    let gseq = (step + 1).saturating_sub(rng.below(3) * rng.below(40));
                    dense.note(n, &d, gseq);
                    model.note(n, &d, gseq);
                }
            }
        }
        assert!(
            empty > 50 && last_word > 200 && nonzero > 1000,
            "{empty} {last_word} {nonzero}"
        );
    }
}
