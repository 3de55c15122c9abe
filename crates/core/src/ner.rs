//! §4.2 — LLM-based information extraction over `notes` and `aka`.
//!
//! The stage has three layers, exactly as the paper describes:
//!
//! 1. **Input filter** — a dropout filter keeps only entries whose free
//!    text contains digits: fields without numbers cannot carry ASN
//!    information, and skipping them saves most of the LLM calls.
//! 2. **Extraction** — the remaining entries are rendered into the
//!    few-shot prompt of Listing 2 and sent to the [`ChatModel`]; the
//!    JSON reply is parsed into candidate sibling ASNs.
//! 3. **Output filter** — to prevent hallucinations, a reply ASN is kept
//!    only if its number sequence literally appears in the entry's
//!    `notes`/`aka` text; non-routable ASNs and the subject's own ASN are
//!    dropped too.

use borges_llm::chat::{ChatModel, ChatRequest, ChatResponse};
use borges_llm::ner::all_routable_numbers;
use borges_llm::prompts::{build_ie_prompt, parse_ie_reply};
use borges_peeringdb::{PdbNetwork, PdbSnapshot};
use borges_resilience::{ResilienceStats, TransportError};
use borges_types::Asn;
use std::collections::{BTreeMap, BTreeSet};

/// Counters for the extraction funnel (§5.2's "notes and aka" numbers).
///
/// Stats from disjoint entry batches combine with `+=`. The one
/// non-additive field, `extracted_asns` (a *distinct* count), is summed
/// like the rest; only a run over the merged batches gives the distinct
/// count across them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NerStats {
    /// PeeringDB entries in the snapshot.
    pub entries_total: usize,
    /// Entries with non-empty `notes` or `aka`.
    pub entries_with_text: usize,
    /// Entries passing the numeric input filter.
    pub entries_numeric: usize,
    /// … of which the digits are in `aka`.
    pub numeric_in_aka: usize,
    /// … of which the digits are in `notes`.
    pub numeric_in_notes: usize,
    /// LLM calls issued (== `entries_numeric` when nothing is abandoned).
    pub llm_calls: usize,
    /// LLM calls whose transport failed after all recovery was exhausted;
    /// the entry is skipped and the stage proceeds on partial evidence.
    /// Always: `llm_abandoned + replies parsed == llm_calls`.
    pub llm_abandoned: usize,
    /// Reply ASNs rejected by the output hallucination filter.
    pub filtered_out: usize,
    /// Entries with at least one surviving extraction.
    pub entries_with_siblings: usize,
    /// Distinct sibling ASNs extracted (excluding subjects).
    pub extracted_asns: usize,
    /// Token accounting across every LLM call (what a hosted model would
    /// bill for this stage).
    pub usage: borges_llm::chat::Usage,
    /// What the resilient model stack spent on this stage (zero over a
    /// bare model).
    pub resilience: ResilienceStats,
}

impl std::ops::AddAssign for NerStats {
    fn add_assign(&mut self, rhs: Self) {
        // Full destructuring: adding a field to NerStats without
        // deciding how it merges is a compile error here.
        let NerStats {
            entries_total,
            entries_with_text,
            entries_numeric,
            numeric_in_aka,
            numeric_in_notes,
            llm_calls,
            llm_abandoned,
            filtered_out,
            entries_with_siblings,
            extracted_asns,
            usage,
            resilience,
        } = rhs;
        self.entries_total += entries_total;
        self.entries_with_text += entries_with_text;
        self.entries_numeric += entries_numeric;
        self.numeric_in_aka += numeric_in_aka;
        self.numeric_in_notes += numeric_in_notes;
        self.llm_calls += llm_calls;
        self.llm_abandoned += llm_abandoned;
        self.filtered_out += filtered_out;
        self.entries_with_siblings += entries_with_siblings;
        self.extracted_asns += extracted_asns;
        self.usage += usage;
        self.resilience += resilience;
        debug_assert!(self.llm_abandoned <= self.llm_calls);
    }
}

/// One memoized extraction reply: the fingerprint of the subject's
/// `notes`/`aka` text at reply time, and the *parsed, pre-filter*
/// finding ASNs. Replaying the findings through the unchanged output
/// filter reproduces the original extraction exactly, so a memo hit
/// skips the LLM call — the incremental path's main saving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NerMemoEntry {
    /// [`crate::delta::ner_text_fp`] of `(notes, aka)` when the reply
    /// was obtained.
    pub fp: u64,
    /// Parsed reply ASNs, before the output hallucination filter.
    pub findings: Vec<Asn>,
}

/// The result of running the NER stage over a snapshot.
#[derive(Debug, Clone, Default)]
pub struct NerResult {
    /// For each subject ASN, the extracted (filtered) sibling ASNs.
    pub per_entry: BTreeMap<Asn, Vec<Asn>>,
    /// Every reply obtained or replayed this run, keyed by subject —
    /// captured on full runs too, so any run can seed a later `remap`.
    pub memo: BTreeMap<Asn, NerMemoEntry>,
    /// Entries answered from a prior memo instead of an LLM call.
    pub memo_hits: usize,
    /// Funnel counters.
    pub stats: NerStats,
}

impl NerResult {
    /// All sibling edges `(subject, extracted)` in deterministic order —
    /// the merge evidence this feature feeds the pipeline.
    pub fn edges(&self) -> Vec<(Asn, Asn)> {
        self.per_entry
            .iter()
            .flat_map(|(s, sibs)| sibs.iter().map(move |x| (*s, *x)))
            .collect()
    }
}

/// Configuration of the NER stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NerConfig {
    /// Apply the numeric input dropout filter (§4.2). Disabling it is an
    /// ablation: every entry with any text goes to the model.
    pub input_filter: bool,
    /// Apply the output hallucination filter (§4.2). Disabling it is an
    /// ablation: every parsed reply ASN is trusted.
    pub output_filter: bool,
}

impl Default for NerConfig {
    fn default() -> Self {
        NerConfig {
            input_filter: true,
            output_filter: true,
        }
    }
}

/// Runs the extraction stage over every network in the snapshot,
/// sending the [`plan`]'s requests one at a time, in plan order.
pub fn extract(pdb: &PdbSnapshot, model: &dyn ChatModel, config: NerConfig) -> NerResult {
    let plan = plan(pdb, config, &BTreeMap::new());
    let replies: Vec<_> = plan.requests().iter().map(|r| model.complete(r)).collect();
    plan.fold(replies)
}

/// One entry past the input filter: the subject, its text fingerprint,
/// and the memoized findings that answer it without a call (`None`: the
/// next request of the plan answers it).
struct Subject<'a> {
    net: &'a PdbNetwork,
    fp: u64,
    memo: Option<Vec<Asn>>,
}

/// The LLM calls an extraction run needs, listed before any is sent.
///
/// [`plan`] applies the input filter and the memo; [`NerPlan::fold`]
/// applies the output filter and the funnel counters to the replies.
/// Requests are listed in snapshot order and fold reads the replies in
/// that same order, so *who* sends them — one at a time, or a pool
/// completing them in any order — cannot change the result.
pub struct NerPlan<'a> {
    config: NerConfig,
    subjects: Vec<Subject<'a>>,
    requests: Vec<ChatRequest>,
    /// The funnel counters the input filter fills in.
    stats: NerStats,
}

/// Lists the extraction calls for every network in `pdb`: entries
/// without text (or, with the input filter on, without digits) need
/// none, and entries whose text fingerprint matches `memo` replay the
/// memoized findings instead: the fold runs them through the identical
/// downstream filters, and no call is issued. `stats.llm_calls` counts
/// physical calls only, so the funnel invariant
/// `llm_abandoned + parsed == llm_calls` still holds.
pub fn plan<'a>(
    pdb: &'a PdbSnapshot,
    config: NerConfig,
    memo: &BTreeMap<Asn, NerMemoEntry>,
) -> NerPlan<'a> {
    let mut plan = NerPlan {
        config,
        subjects: Vec::new(),
        requests: Vec::new(),
        stats: NerStats::default(),
    };
    for net in pdb.nets() {
        plan.stats.entries_total += 1;
        if !net.has_text() {
            continue;
        }
        plan.stats.entries_with_text += 1;
        let numeric = net.has_numeric_text();
        if numeric {
            plan.stats.entries_numeric += 1;
            if net.aka_has_digit() {
                plan.stats.numeric_in_aka += 1;
            }
            if net.notes_has_digit() {
                plan.stats.numeric_in_notes += 1;
            }
        }
        if config.input_filter && !numeric {
            continue;
        }
        let fp = crate::delta::ner_text_fp(&net.notes, &net.aka);
        let memo = match memo.get(&net.asn) {
            Some(entry) if entry.fp == fp => Some(entry.findings.clone()),
            _ => {
                let prompt = build_ie_prompt(net.asn, &net.notes, &net.aka);
                plan.requests.push(ChatRequest::user(prompt));
                None
            }
        };
        plan.subjects.push(Subject { net, fp, memo });
    }
    plan
}

impl NerPlan<'_> {
    /// The calls to send, in canonical (snapshot) order.
    pub fn requests(&self) -> &[ChatRequest] {
        &self.requests
    }

    /// Applies the stage to the replies — one per request, in request
    /// order — and returns its result.
    pub fn fold(
        self,
        replies: impl IntoIterator<Item = Result<ChatResponse, TransportError>>,
    ) -> NerResult {
        let config = self.config;
        let mut replies = replies.into_iter();
        let mut result = NerResult {
            stats: self.stats,
            ..NerResult::default()
        };
        for Subject { net, fp, memo } in self.subjects {
            let findings: Vec<Asn> = match memo {
                // A memoized reply for unchanged text: replay the parsed
                // findings through the identical filters below, no call.
                Some(findings) => {
                    result.memo_hits += 1;
                    findings
                }
                None => {
                    // An abandoned call is still an attempted call, so
                    // `llm_abandoned + parsed == llm_calls` holds by
                    // construction.
                    result.stats.llm_calls += 1;
                    let reply = match replies.next().expect("one reply per request") {
                        Ok(reply) => reply,
                        Err(_transport) => {
                            // Budgets exhausted (or a hard block): record
                            // the loss and degrade gracefully — the other
                            // entries still extract. Failures are never
                            // memoized.
                            result.stats.llm_abandoned += 1;
                            continue;
                        }
                    };
                    result.stats.usage += reply.usage;
                    parse_ie_reply(&reply.text)
                        .into_iter()
                        .map(|f| f.asn)
                        .collect()
                }
            };
            // Memoize every answered entry (empty findings included) so any
            // run's state can seed a later incremental remap.
            result.memo.insert(
                net.asn,
                NerMemoEntry {
                    fp,
                    findings: findings.clone(),
                },
            );
            if findings.is_empty() {
                continue;
            }

            // Output filter: the reply may only name numbers present in the
            // source text.
            let allowed: BTreeSet<u32> = if config.output_filter {
                all_routable_numbers(&format!("{}\n{}", net.notes, net.aka))
                    .into_iter()
                    .collect()
            } else {
                BTreeSet::new()
            };

            let mut siblings: Vec<Asn> = Vec::new();
            for asn in findings {
                if asn == net.asn {
                    continue;
                }
                if config.output_filter && (!allowed.contains(&asn.value()) || !asn.is_routable()) {
                    result.stats.filtered_out += 1;
                    continue;
                }
                siblings.push(asn);
            }
            siblings.sort_unstable();
            siblings.dedup();
            if !siblings.is_empty() {
                result.stats.entries_with_siblings += 1;
                result.per_entry.insert(net.asn, siblings);
            }
        }
        assert!(replies.next().is_none(), "one reply per request");
        let distinct: BTreeSet<Asn> = result
            .per_entry
            .values()
            .flat_map(|v| v.iter().copied())
            .collect();
        result.stats.extracted_asns = distinct.len();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borges_llm::chat::ChatResponse;
    use borges_llm::SimLlm;
    use borges_peeringdb::PdbOrganization;
    use borges_resilience::stable_hash;
    use borges_types::PdbOrgId;

    fn snapshot(entries: &[(u32, &str, &str)]) -> PdbSnapshot {
        let mut b = PdbSnapshot::builder().org(PdbOrganization {
            id: PdbOrgId::new(1),
            name: "org".into(),
            website: String::new(),
            country: "US".into(),
        });
        for (i, (asn, notes, aka)) in entries.iter().enumerate() {
            b = b.net(PdbNetwork {
                id: i as u64 + 1,
                org_id: PdbOrgId::new(1),
                asn: Asn::new(*asn),
                name: format!("net{asn}"),
                aka: aka.to_string(),
                notes: notes.to_string(),
                website: String::new(),
            });
        }
        b.build().unwrap()
    }

    #[test]
    fn end_to_end_extraction() {
        let pdb = snapshot(&[
            (3320, "Our subsidiaries: AS6855 and AS5391.", ""),
            (100, "Leading regional provider.", ""), // no digits → filtered
            (200, "", ""),
        ]);
        let llm = SimLlm::flawless();
        let r = extract(&pdb, &llm, NerConfig::default());
        assert_eq!(r.stats.entries_total, 3);
        assert_eq!(r.stats.entries_with_text, 2);
        assert_eq!(r.stats.entries_numeric, 1);
        assert_eq!(r.stats.llm_calls, 1, "input filter saves the second call");
        assert_eq!(
            r.per_entry.get(&Asn::new(3320)).unwrap(),
            &vec![Asn::new(5391), Asn::new(6855)]
        );
        assert_eq!(r.stats.extracted_asns, 2);
        assert_eq!(r.edges().len(), 2);
    }

    #[test]
    fn input_filter_ablation_calls_on_all_text() {
        let pdb = snapshot(&[(1, "digit-free boilerplate", ""), (2, "sibling AS100", "")]);
        let llm = SimLlm::flawless();
        let with = extract(&pdb, &llm, NerConfig::default());
        let without = extract(
            &pdb,
            &llm,
            NerConfig {
                input_filter: false,
                output_filter: true,
            },
        );
        assert_eq!(with.stats.llm_calls, 1);
        assert_eq!(without.stats.llm_calls, 2);
        // Same extractions either way — the filter only saves calls.
        assert_eq!(with.per_entry, without.per_entry);
    }

    /// A model that hallucinates an ASN never present in the text.
    struct Hallucinator;
    impl ChatModel for Hallucinator {
        fn complete(
            &self,
            _request: &ChatRequest,
        ) -> Result<ChatResponse, borges_resilience::TransportError> {
            Ok(ChatResponse {
                text: r#"[{"asn": 65000, "reason": "made up"}, {"asn": 7018, "reason": "also made up"}]"#.into(),
                usage: Default::default(),
            })
        }
        fn model_id(&self) -> &str {
            "hallucinator"
        }
    }

    #[test]
    fn output_filter_blocks_hallucinations() {
        let pdb = snapshot(&[(1, "We mention 42 once.", "")]);
        let r = extract(&pdb, &Hallucinator, NerConfig::default());
        assert!(r.per_entry.is_empty(), "hallucinated ASNs must not survive");
        assert_eq!(r.stats.filtered_out, 2);

        let unfiltered = extract(
            &pdb,
            &Hallucinator,
            NerConfig {
                input_filter: true,
                output_filter: false,
            },
        );
        assert_eq!(unfiltered.per_entry.get(&Asn::new(1)).unwrap().len(), 2);
    }

    #[test]
    fn subject_asn_is_never_its_own_sibling() {
        let pdb = snapshot(&[(3320, "Sibling networks: AS3320, AS5483.", "")]);
        let llm = SimLlm::flawless();
        let r = extract(&pdb, &llm, NerConfig::default());
        assert_eq!(
            r.per_entry.get(&Asn::new(3320)).unwrap(),
            &vec![Asn::new(5483)]
        );
    }

    #[test]
    fn aka_and_notes_funnel_counters() {
        let pdb = snapshot(&[
            (1, "phone 555", "Edgecast, AS15133"),
            (2, "max prefixes 100", ""),
            (3, "", "former name only"),
        ]);
        let llm = SimLlm::flawless();
        let r = extract(&pdb, &llm, NerConfig::default());
        assert_eq!(r.stats.entries_numeric, 2);
        assert_eq!(r.stats.numeric_in_aka, 1);
        assert_eq!(r.stats.numeric_in_notes, 2);
        assert_eq!(
            r.per_entry.get(&Asn::new(1)).unwrap(),
            &vec![Asn::new(15133)]
        );
    }

    /// Plans over `memo`, sends the remaining requests one at a time,
    /// and folds the replies.
    fn extract_over_memo(
        pdb: &PdbSnapshot,
        model: &dyn ChatModel,
        memo: &BTreeMap<Asn, NerMemoEntry>,
    ) -> NerResult {
        let plan = plan(pdb, NerConfig::default(), memo);
        let replies: Vec<_> = plan.requests().iter().map(|r| model.complete(r)).collect();
        plan.fold(replies)
    }

    fn numbered_snapshot() -> PdbSnapshot {
        let entries: Vec<(u32, String, String)> = (1..60)
            .map(|i| {
                (
                    i,
                    format!("Our subsidiaries: AS{} and AS{}.", 1000 + i, 2000 + i),
                    String::new(),
                )
            })
            .collect();
        let borrowed: Vec<(u32, &str, &str)> = entries
            .iter()
            .map(|(a, n, k)| (*a, n.as_str(), k.as_str()))
            .collect();
        snapshot(&borrowed)
    }

    #[test]
    fn parallel_extraction_is_identical_to_sequential() {
        // The pooled path: every request its own key on a pool of
        // `in_flight` workers, replies released in request order.
        let pdb = numbered_snapshot();
        let llm = SimLlm::new(5);
        let sequential = extract(&pdb, &llm, NerConfig::default());
        for in_flight in [1, 2, 3, 7] {
            let plan = plan(&pdb, NerConfig::default(), &BTreeMap::new());
            let mut replies = Vec::new();
            borges_parallel::stream_indexed(
                plan.requests(),
                in_flight,
                |r| stable_hash(r.full_text().as_bytes()),
                |_, r| llm.complete(r),
                |_, reply| replies.push(reply),
            );
            let parallel = plan.fold(replies);
            assert_eq!(parallel.per_entry, sequential.per_entry);
            assert_eq!(parallel.memo, sequential.memo);
            assert_eq!(parallel.stats, sequential.stats, "{in_flight} in flight");
        }
    }

    #[test]
    fn folding_replies_completed_in_any_order_is_identical() {
        let pdb = numbered_snapshot();
        let llm = SimLlm::new(5);
        let sequential = extract(&pdb, &llm, NerConfig::default());
        let n = plan(&pdb, NerConfig::default(), &BTreeMap::new())
            .requests()
            .len();
        let reversed: Vec<usize> = (0..n).rev().collect();
        let strided: Vec<usize> = (0..n).map(|i| (i * 7) % n).collect();
        for order in [reversed, strided] {
            let plan = plan(&pdb, NerConfig::default(), &BTreeMap::new());
            let mut slots: Vec<Option<_>> = (0..n).map(|_| None).collect();
            for &i in &order {
                slots[i] = Some(llm.complete(&plan.requests()[i]));
            }
            let folded = plan.fold(slots.into_iter().map(Option::unwrap));
            assert_eq!(folded.per_entry, sequential.per_entry);
            assert_eq!(folded.memo, sequential.memo);
            assert_eq!(folded.stats, sequential.stats);
        }
    }

    #[test]
    fn plan_lists_only_calls_the_filters_and_memo_leave() {
        let pdb = snapshot(&[
            (3320, "Our subsidiaries: AS6855 and AS5391.", ""),
            (100, "Leading regional provider.", ""),
            (200, "", ""),
            (300, "peering AS174", ""),
        ]);
        let llm = SimLlm::flawless();
        let all = plan(&pdb, NerConfig::default(), &BTreeMap::new());
        assert_eq!(all.requests().len(), 2, "input filter drops 100 and 200");
        let first = extract(&pdb, &llm, NerConfig::default());
        let replay = plan(&pdb, NerConfig::default(), &first.memo);
        assert!(replay.requests().is_empty(), "the memo answers both");
        assert_eq!(replay.fold(Vec::new()).per_entry, first.per_entry);
    }

    #[test]
    fn memo_replay_skips_calls_and_reproduces_output() {
        let pdb = snapshot(&[
            (3320, "Our subsidiaries: AS6855 and AS5391.", ""),
            (100, "Leading regional provider.", ""),
        ]);
        let llm = SimLlm::flawless();
        let first = extract(&pdb, &llm, NerConfig::default());
        assert_eq!(first.memo.len(), 1, "answered entries are memoized");
        assert_eq!(first.memo_hits, 0);

        // Re-run over the same snapshot seeded with the memo: identical
        // extraction, zero physical calls.
        let replay = extract_over_memo(&pdb, &llm, &first.memo);
        assert_eq!(replay.per_entry, first.per_entry);
        assert_eq!(replay.memo, first.memo);
        assert_eq!(replay.memo_hits, 1);
        assert_eq!(replay.stats.llm_calls, 0, "memo hit issues no call");
        assert_eq!(replay.stats.extracted_asns, first.stats.extracted_asns);
    }

    #[test]
    fn memo_is_guarded_by_text_fingerprint() {
        let pdb_t0 = snapshot(&[(3320, "Our subsidiaries: AS6855.", "")]);
        let pdb_t1 = snapshot(&[(3320, "Our subsidiaries: AS5391.", "")]);
        let llm = SimLlm::flawless();
        let first = extract(&pdb_t0, &llm, NerConfig::default());
        let second = extract_over_memo(&pdb_t1, &llm, &first.memo);
        assert_eq!(second.memo_hits, 0, "changed text must not replay");
        assert_eq!(second.stats.llm_calls, 1);
        assert_eq!(
            second.per_entry.get(&Asn::new(3320)).unwrap(),
            &vec![Asn::new(5391)]
        );
    }

    #[test]
    fn stats_sum_with_add_assign() {
        let pdb_a = snapshot(&[(3320, "Our subsidiaries: AS6855 and AS5391.", "")]);
        let pdb_b = snapshot(&[(100, "Leading regional provider.", ""), (200, "", "")]);
        let llm = SimLlm::flawless();
        let a = extract(&pdb_a, &llm, NerConfig::default());
        let b = extract(&pdb_b, &llm, NerConfig::default());
        let mut summed = a.stats;
        summed += b.stats;
        assert_eq!(summed.entries_total, 3);
        assert_eq!(summed.entries_with_text, 2);
        assert_eq!(summed.llm_calls, 1);
        assert_eq!(summed.usage, a.stats.usage + b.stats.usage);
    }

    /// A backend that fails transport for even-numbered subjects.
    struct HalfDead;
    impl ChatModel for HalfDead {
        fn complete(
            &self,
            request: &ChatRequest,
        ) -> Result<ChatResponse, borges_resilience::TransportError> {
            let text = request.full_text();
            let even = text
                .split_once("for the ASN ")
                .and_then(|(_, rest)| {
                    rest.split(|c: char| !c.is_ascii_digit())
                        .next()
                        .and_then(|d| d.parse::<u32>().ok())
                })
                .is_some_and(|asn| asn % 2 == 0);
            if even {
                Err(borges_resilience::TransportError::Timeout)
            } else {
                SimLlm::flawless().complete(request)
            }
        }
        fn model_id(&self) -> &str {
            "half-dead"
        }
    }

    #[test]
    fn chaos_transport_failures_degrade_not_panic() {
        let pdb = snapshot(&[
            (1, "Our subsidiaries: AS100.", ""),
            (2, "Our subsidiaries: AS200.", ""),
            (3, "Our subsidiaries: AS300.", ""),
            (4, "Our subsidiaries: AS400.", ""),
        ]);
        let r = extract(&pdb, &HalfDead, NerConfig::default());
        // Every call is accounted: attempted == abandoned + answered.
        assert_eq!(r.stats.llm_calls, 4);
        assert_eq!(r.stats.llm_abandoned, 2);
        assert_eq!(r.per_entry.len(), 2, "odd subjects still extract");
        assert!(r.per_entry.contains_key(&Asn::new(1)));
        assert!(r.per_entry.contains_key(&Asn::new(3)));
        // The surviving extractions are exactly the flawless ones.
        let flawless = extract(&pdb, &SimLlm::flawless(), NerConfig::default());
        for (asn, sibs) in &r.per_entry {
            assert_eq!(flawless.per_entry.get(asn), Some(sibs));
        }
    }

    #[test]
    fn upstream_listings_produce_no_edges() {
        let pdb = snapshot(&[(
            262287,
            "We connect directly with the following ISPs,\n- Algar (AS16735)\n- Cogent (AS174)",
            "",
        )]);
        let llm = SimLlm::flawless();
        let r = extract(&pdb, &llm, NerConfig::default());
        assert!(
            r.per_entry.is_empty(),
            "Listing 1 upstreams must be ignored"
        );
        assert_eq!(r.stats.llm_calls, 1);
    }
}
