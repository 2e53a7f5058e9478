//! Test-side taps on a running campaign.
//!
//! A campaign keeps running counts of its collection attempts, not the
//! attempts themselves. A test that needs every record (a golden digest
//! of the collection stream, a check on single attempts) installs a tap
//! right after the collection phase and sees each tick's records there.

use frostlab::core::{CampaignCtx, ScenarioBuilder, TickPhase};
use frostlab::netsim::collector::CollectRecord;

/// The phase behind [`tap_collection`].
struct CollectionTap<F>(F);

impl<F: FnMut(&[CollectRecord])> TickPhase for CollectionTap<F> {
    fn name(&self) -> &str {
        "collection-tap"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        (self.0)(ctx.collector.tick_records());
    }
}

/// `builder` with `f` called once per tick, after the collection phase,
/// on that tick's collection attempts in the order they were made.
pub fn tap_collection(
    builder: ScenarioBuilder,
    f: impl FnMut(&[CollectRecord]) + 'static,
) -> ScenarioBuilder {
    builder.insert_after("collection", Box::new(CollectionTap(f)))
}
