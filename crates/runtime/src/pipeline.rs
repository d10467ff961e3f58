//! The block-pass exchange, [`BrokerClient::exchange`], which both step
//! bodies run on their broker's own hub, placement, routes and lanes:
//! route → plan → one [`Message::PackedDispatch`] per worker with rows →
//! drain and validate one [`Message::PackedResult`] per frame sent → phase
//! log, spans and flow events.
//!
//! One frame per worker per block-pass is the whole schedule. The master
//! has nothing to compute while a frame is in flight — this communication
//! is *exposed* — so splitting a worker's rows into more frames only adds
//! wake-ups (measured in EXPERIMENTS.md, "One exchange"). What can vary is
//! the order replies arrive in, and that never reaches the model: the real
//! engine's [`Rows`] hands results on as an ascending prefix of batch
//! indices, so float accumulation order is the same however workers race.

use vela_obs::{FlowPhase, LazyCounter};

use crate::broker::{
    observe_phase, pass_name, route_experts, worker_src, BrokerClient, Pass, PhaseLog,
};
use crate::message::{Message, PackedData, PackedGroup};
use crate::transport::TransportError;

/// Span around encoding + shipping the block-pass's dispatch frames.
const SPAN_SERIALIZE: &str = "runtime.pipeline.serialize";
/// Span around each blocked drain (master idle, frames in flight).
const SPAN_INFLIGHT: &str = "runtime.pipeline.inflight";
/// Span around streamed-combine delivery of a completed batch prefix.
pub(crate) const SPAN_COMBINE: &str = "runtime.pipeline.combine";
/// Span around the boundary migration pump: the cutovers, plus any wait
/// for a stream that had not landed — the visible cost of a move.
pub(crate) const SPAN_MIGRATION_PUMP: &str = "runtime.migration.pump";

// The three counters below count every lane, the process-mode launch and
// teardown re-placements' included.

/// Migration chunk frames relayed master → destination: a lane's frozen
/// stream and its cutover's trainable stream alike.
pub(crate) static MIGRATION_CHUNKS: LazyCounter = LazyCounter::new("runtime.migration.chunks");
/// Migration chunk bytes relayed master → destination, both streams of a
/// lane.
pub(crate) static MIGRATION_BYTES: LazyCounter = LazyCounter::new("runtime.migration.bytes");
/// Migration lanes cut over at a step boundary or a flush.
pub(crate) static MIGRATION_COMMITS: LazyCounter = LazyCounter::new("runtime.migration.commits");

/// Which worker serves which items of one block-pass.
///
/// Built once per exchange from the item → worker assignment; buffers are
/// reused across exchanges. Items keep their dispatch order within a
/// worker.
#[derive(Debug, Default)]
pub(crate) struct DispatchPlan {
    by_worker: Vec<Vec<usize>>,
}

impl DispatchPlan {
    /// Groups an item list over `workers`, given each item's assigned
    /// worker (in item order).
    pub(crate) fn build(&mut self, workers: usize, assignments: impl Iterator<Item = usize>) {
        self.by_worker.resize_with(workers, Vec::new);
        for list in &mut self.by_worker {
            list.clear();
        }
        for (item, w) in assignments.enumerate() {
            self.by_worker[w].push(item);
        }
    }

    /// The item indices routed to worker `w`, ascending.
    pub(crate) fn items(&self, w: usize) -> &[usize] {
        &self.by_worker[w]
    }

    /// The packed-region layout of worker `w`'s frame: yields
    /// `(item_index, row_offset, rows)` for each of its items, given every
    /// item's row count. Packed frames carry one contiguous data region
    /// and no per-item payload headers, so this is both how a dispatch
    /// region is laid out and how the master re-slices a reply region back
    /// into per-batch tensors — the reply's implicit layout is the plan
    /// itself, never the wire.
    pub(crate) fn regions<'a>(
        &'a self,
        w: usize,
        rows_of: impl Fn(usize) -> usize + 'a,
    ) -> impl Iterator<Item = (usize, usize, usize)> + 'a {
        self.items(w).iter().scan(0usize, move |offset, &item| {
            let rows = rows_of(item);
            let lo = *offset;
            *offset += rows;
            Some((item, lo, rows))
        })
    }
}

/// What one engine feeds [`BrokerClient::exchange`]: where each worker's row region
/// comes from and where its reply goes. Items are the block-pass's expert
/// batches in dispatch order.
pub(crate) trait Rows {
    /// `(expert, rows)` of every item, in dispatch order.
    fn loads(&self) -> Vec<(usize, u64)>;
    /// Features per row (declared bytes per token for virtual rows).
    fn width(&self) -> u32;
    /// Packs the given items' rows, in order, into one dispatch frame.
    fn pack(&self, block: u32, pass: Pass, items: &[usize]) -> PackedGroup;
    /// Takes one worker's reply region, already validated against the
    /// dispatch's item count, row total and width. `layout` yields
    /// `(item, first_row, rows)` over that worker's items.
    fn deliver(
        &mut self,
        layout: impl Iterator<Item = (usize, usize, usize)>,
        data: PackedData,
    ) -> Result<(), TransportError>;
}

/// Correlation key tying the master-side dispatch to worker `w` (and its
/// reply) to the worker's serve span. Both sides call this, each deriving
/// the step component from its own [`vela_obs::current_step`]; those agree
/// because `StepBegin` frames precede dispatches on every per-link FIFO.
pub(crate) fn exchange_corr(w: usize, block: usize, pass: Pass) -> u64 {
    vela_obs::corr::pack(
        vela_obs::current_step(),
        w as u64,
        block as u64,
        matches!(pass, Pass::Backward) as u64,
    )
}

impl BrokerClient {
    /// Dispatch + gather for one block and pass; the phase log is kept for
    /// [`take_phase_logs`](Self::take_phase_logs), and the whole call is
    /// one `runtime.broker.{fwd,bwd}` span whichever body drives it.
    /// Replies may arrive in any order across workers (background-migration
    /// lane frames that surface meanwhile are relayed); each is checked
    /// against what its worker was sent — wrong kinds, blocks, passes,
    /// shapes, strangers and duplicates are protocol errors, not panics —
    /// before `rows` sees it.
    pub(crate) fn exchange<R: Rows>(
        &mut self,
        block: usize,
        pass: Pass,
        rows: &mut R,
    ) -> Result<(), TransportError> {
        let _span = vela_obs::span(match pass {
            Pass::Forward => "runtime.broker.fwd",
            Pass::Backward => "runtime.broker.bwd",
        });
        let workers = self.hub.worker_count();
        let mut log = PhaseLog {
            block,
            pass,
            bytes_out: vec![0; workers],
            bytes_back: vec![0; workers],
            rows: vec![0; workers],
        };
        let loads = rows.loads();
        let assigned = route_experts(
            &self.placement,
            &mut self.routes,
            block,
            matches!(pass, Pass::Backward),
            &loads,
        );
        self.plan.build(workers, assigned.iter().copied());

        let mut owed = vec![false; workers];
        {
            let _g = vela_obs::span(SPAN_SERIALIZE);
            for (w, owes) in owed.iter_mut().enumerate() {
                let items = self.plan.items(w);
                if items.is_empty() {
                    continue;
                }
                log.rows[w] = items.iter().map(|&i| loads[i].1).sum();
                let msg = Message::PackedDispatch(rows.pack(block as u32, pass, items));
                log.bytes_out[w] = msg.accounted_bytes();
                vela_obs::flow(FlowPhase::Start, exchange_corr(w, block, pass));
                self.hub.send(w, &msg)?;
                *owes = true;
            }
        }

        while owed.contains(&true) {
            let (w, msg) = {
                let _g = vela_obs::span(SPAN_INFLIGHT);
                self.recv_routed()?
            };
            log.bytes_back[w] = msg.accounted_bytes();
            let Message::PackedResult(reply) = msg else {
                return Err(TransportError::Protocol(format!(
                    "unexpected reply during {} exchange: {msg:?}",
                    pass_name(pass)
                )));
            };
            if !std::mem::take(&mut owed[w]) {
                return Err(TransportError::Protocol(format!(
                    "worker {w} sent a {} reply for block {block} it does not owe",
                    pass_name(pass)
                )));
            }
            // A reply must mirror the dispatch it answers.
            if reply.block as usize != block || reply.pass != pass {
                return Err(TransportError::Protocol(format!(
                    "{:?} reply for block {} during the {} exchange of block {block}",
                    reply.pass,
                    reply.block,
                    pass_name(pass)
                )));
            }
            let (items, sent_rows, width) = (self.plan.items(w).len(), log.rows[w], rows.width());
            if reply.items as usize != items
                || u64::from(reply.rows) != sent_rows
                || reply.width != width
            {
                return Err(TransportError::Protocol(format!(
                    "worker {w} answered with {} items × {} rows of width {}, dispatch had \
                     {items} items × {sent_rows} rows of width {width}",
                    reply.items, reply.rows, reply.width
                )));
            }
            vela_obs::flow(FlowPhase::Finish, exchange_corr(w, block, pass));
            rows.deliver(self.plan.regions(w, |i| loads[i].1 as usize), reply.data)?;
        }

        if vela_obs::enabled() {
            let expert_rows: Vec<(usize, usize)> =
                loads.iter().map(|&(e, n)| (e, n as usize)).collect();
            observe_phase(&log, &expert_rows);
            // Per-worker `(expert, rows)` events are what `trace_summary`'s
            // replication section aggregates into per-replica token shares.
            // Only emitted for placements with actual replication, so
            // degree-1 traces stay identical to the seed's.
            if !self.placement.is_degree_one() {
                for w in (0..workers).filter(|&w| !self.plan.items(w).is_empty()) {
                    let served: Vec<(usize, usize)> =
                        self.plan.items(w).iter().map(|&i| expert_rows[i]).collect();
                    vela_obs::expert_rows(worker_src(w), pass_name(pass), block, &served);
                }
            }
        }
        self.phase_logs.push(log);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(workers: usize, assign: &[usize]) -> DispatchPlan {
        let mut p = DispatchPlan::default();
        p.build(workers, assign.iter().copied());
        p
    }

    #[test]
    fn items_are_grouped_per_worker_in_dispatch_order() {
        // 8 items alternating between 2 workers (the bench placement):
        // each worker's frame carries its own items, in dispatch order.
        let assign: Vec<usize> = (0..8).map(|e| e % 2).collect();
        let p = plan(2, &assign);
        assert_eq!(p.items(0), &[0, 2, 4, 6]);
        assert_eq!(p.items(1), &[1, 3, 5, 7]);
    }

    #[test]
    fn every_item_lands_on_its_assigned_worker() {
        let p = plan(3, &[2, 0, 2, 1]);
        assert_eq!(p.items(0), &[1]);
        assert_eq!(p.items(1), &[3]);
        assert_eq!(p.items(2), &[0, 2]);
    }

    #[test]
    fn workers_without_items_get_no_frame() {
        let p = plan(3, &[1, 1]);
        assert!(p.items(0).is_empty());
        assert!(p.items(2).is_empty());
        assert_eq!(p.items(1), &[0, 1]);
        // Buffers are reused: a rebuild forgets the previous exchange.
        let mut p = p;
        p.build(2, [0usize].into_iter());
        assert_eq!(p.items(0), &[0]);
        assert!(p.items(1).is_empty());
    }

    #[test]
    fn regions_tile_each_workers_frame_densely() {
        // Items 0,2,4 on worker 0 with 1,3,5 rows: offsets run on from one
        // item to the next and restart per worker, because every worker's
        // rows are their own packed frame.
        let p = plan(2, &[0, 1, 0, 1, 0]);
        let rows_of = |i: usize| i + 1;
        let w0: Vec<_> = p.regions(0, rows_of).collect();
        assert_eq!(w0, vec![(0, 0, 1), (2, 1, 3), (4, 4, 5)]);
        let w1: Vec<_> = p.regions(1, rows_of).collect();
        assert_eq!(w1, vec![(1, 0, 2), (3, 2, 4)]);
    }
}
