//! Shared cost context used by every system to turn a token routing into
//! per-layer operation timings.

use laer_cluster::{DegradedView, Topology};
use laer_model::{memory, CostModel, GpuSpec, ModelConfig, BF16_BYTES};
use laer_planner::{time_cost, CostBreakdown, CostParams, TokenRouting};
use laer_sim::all_to_all_time;

/// Everything a system needs to cost its decisions: topology, model,
/// GPU spec and the per-iteration workload size.
#[derive(Debug, Clone)]
pub struct SystemContext {
    topo: Topology,
    model: ModelConfig,
    cost: CostModel,
    gpu: GpuSpec,
    params: CostParams,
    capacity: usize,
    tokens_per_device: u64,
    seq_len: usize,
    /// When set, token All-to-Alls are priced against this degraded
    /// network instead of the nominal topology.
    fault_view: Option<DegradedView>,
}

impl SystemContext {
    /// Creates a context. `tokens_per_device` is `S` (tokens, not
    /// assignments) per device per iteration.
    pub fn new(
        topo: Topology,
        model: ModelConfig,
        gpu: GpuSpec,
        tokens_per_device: u64,
        seq_len: usize,
    ) -> Self {
        let capacity = model.default_capacity();
        let cost = CostModel::new(&model, gpu);
        let params = CostParams::from_model(&model, gpu, false);
        Self {
            topo,
            model,
            cost,
            gpu,
            params,
            capacity,
            tokens_per_device,
            seq_len,
            fault_view: None,
        }
    }

    /// Installs (or clears) a degraded network view; subsequent
    /// [`SystemContext::a2a_times`] calls price against it.
    ///
    /// # Panics
    ///
    /// Panics if the view's base topology has a different device count
    /// than this context's topology.
    pub fn set_fault_view(&mut self, view: Option<DegradedView>) {
        if let Some(v) = &view {
            assert_eq!(
                v.base().num_devices(),
                self.topo.num_devices(),
                "fault view must match the context topology"
            );
        }
        self.fault_view = view;
    }

    /// The installed degraded network view, if any.
    pub fn fault_view(&self) -> Option<&DegradedView> {
        self.fault_view.as_ref()
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The model configuration.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The derived cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The Eq. 2 scalar parameters (`F_ckpt` off, matching the
    /// experiments' default schedules).
    pub fn cost_params(&self) -> &CostParams {
        &self.params
    }

    /// Prices a routing with the planner's Eq. 1 model (`T = T_comm +
    /// T_comp`) against the current network — the degraded view when a
    /// fault is installed, the nominal topology otherwise. Systems
    /// without their own planner belief use this to state what the cost
    /// model predicts for the layout they executed, so the decision
    /// audit can compare every system against simulated actuals.
    pub fn eq1_cost(&self, routing: &TokenRouting) -> CostBreakdown {
        match &self.fault_view {
            Some(view) => time_cost(view, routing, &self.params),
            None => time_cost(&self.topo, routing, &self.params),
        }
    }

    /// Expert capacity per device `C`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tokens per device per iteration `S`.
    pub fn tokens_per_device(&self) -> u64 {
        self.tokens_per_device
    }

    /// Assignments per device per iteration (`S · K`).
    pub fn assignments_per_device(&self) -> u64 {
        self.tokens_per_device * self.model.top_k() as u64
    }

    /// Sequence length used for attention FLOPs.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Forward attention compute time per device (no TP), seconds.
    pub fn attention_forward_time(&self) -> f64 {
        self.tokens_per_device as f64 * self.model.attention_flops_per_token(self.seq_len) as f64
            / self.gpu.effective_flops()
    }

    /// Extra per-layer forward communication from tensor-parallel
    /// attention of degree `tp` (one ring all-reduce of the TP group's
    /// activations over NVLink).
    pub fn tp_attention_comm(&self, tp: usize) -> f64 {
        if tp <= 1 {
            return 0.0;
        }
        let group_tokens = self.tokens_per_device as f64 * tp as f64;
        let volume = group_tokens * self.model.hidden() as f64 * BF16_BYTES as f64;
        2.0 * (tp as f64 - 1.0) / tp as f64 * volume / self.topo.intra_bandwidth()
    }

    /// Per-device forward expert-compute times implied by a routing.
    pub fn expert_forward_times(&self, routing: &TokenRouting) -> Vec<f64> {
        routing
            .device_compute_loads()
            .into_iter()
            .map(|l| self.cost.expert_forward_time(l))
            .collect()
    }

    /// Per-device token All-to-All local costs implied by a routing,
    /// priced by [`all_to_all_time`] against the current network. They
    /// are dispatch's and combine's alike: combine is dispatch
    /// transposed, which prices the same.
    pub fn a2a_times(&self, routing: &TokenRouting) -> Vec<f64> {
        let traffic = routing
            .entries()
            .iter()
            .map(|&(src, _, dst, tokens)| (src, dst, tokens));
        let token_bytes = self.cost.v_comm();
        match &self.fault_view {
            Some(view) => all_to_all_time(view, traffic, token_bytes),
            None => all_to_all_time(&self.topo, traffic, token_bytes),
        }
    }

    /// FSEP unshard time per layer: balanced All-to-All of
    /// `C·(N−1)/N·Ψ_expert` plus the FSDP gather of the layer's non-expert
    /// parameters.
    pub fn fsep_prefetch_time(&self) -> f64 {
        let n = self.topo.num_devices();
        let expert_bytes = memory::fsep_unshard_volume_bytes(&self.model, n, self.capacity);
        (expert_bytes + self.other_param_gather_bytes()) / self.effective_a2a_bw()
    }

    /// Classic FSDP+EP unshard (all-gather) time per layer.
    pub fn fsdp_prefetch_time(&self) -> f64 {
        let p_fsdp = self.fsdp_degree();
        let expert_bytes = memory::fsdp_unshard_volume_bytes(&self.model, p_fsdp, self.capacity);
        (expert_bytes + self.other_param_gather_bytes()) / self.effective_a2a_bw()
    }

    /// FSEP gradient reshard time (same volume as unshard, Sec. 3.1).
    pub fn fsep_grad_sync_time(&self) -> f64 {
        self.fsep_prefetch_time()
    }

    /// FSDP+EP gradient reduce-scatter time.
    pub fn fsdp_grad_sync_time(&self) -> f64 {
        self.fsdp_prefetch_time()
    }

    /// Megatron per-layer gradient synchronisation: ring all-reduce of
    /// the hosted experts over the `N·C/E` replica groups plus the
    /// attention DP all-reduce across the `N / tp` groups.
    pub fn megatron_grad_sync_time(&self, tp: usize) -> f64 {
        let n = self.topo.num_devices();
        let e = self.model.experts();
        let replicas = (n * self.capacity) / e;
        let expert_bytes = (self.capacity as u64 * self.model.expert_params() * BF16_BYTES) as f64;
        let expert_ar = if replicas >= 2 {
            2.0 * (replicas as f64 - 1.0) / replicas as f64 * expert_bytes / self.effective_a2a_bw()
        } else {
            0.0
        };
        let dp = (n / tp.max(1)).max(1);
        let attn_bytes = (self.model.other_params_per_layer() * BF16_BYTES) as f64;
        let attn_ar = if dp >= 2 {
            2.0 * (dp as f64 - 1.0) / dp as f64 * attn_bytes / self.effective_a2a_bw()
        } else {
            0.0
        };
        expert_ar + attn_ar
    }

    /// All-gather bytes for a layer's non-expert parameters under FSDP.
    fn other_param_gather_bytes(&self) -> f64 {
        let n = self.topo.num_devices() as f64;
        (self.model.other_params_per_layer() * BF16_BYTES) as f64 * (n - 1.0) / n
    }

    /// The FSDP degree of the FSDP+EP baseline: `N / P_ep` with
    /// `P_ep = E / C`.
    pub fn fsdp_degree(&self) -> usize {
        let p_ep = (self.model.experts() / self.capacity).max(1);
        (self.topo.num_devices() / p_ep).max(2)
    }

    /// Effective per-device bandwidth for parameter collectives.
    pub fn effective_a2a_bw(&self) -> f64 {
        self.cost.effective_a2a_bandwidth(&self.topo)
    }

    /// Megatron's tensor-parallel degree: the smallest TP whose
    /// per-device memory fits the 80 GB budget at this context's token
    /// count (derived via [`laer_model::memory::megatron_min_tp`]; the
    /// paper observes the same outcome in Sec. 5.2 — the >40 B e8k2
    /// configs force TP = 4, the ~35 B e16k4 configs run at TP = 2).
    ///
    /// # Panics
    ///
    /// Panics if no TP degree up to the node size fits (the workload
    /// would OOM on the paper's hardware).
    pub fn megatron_tp(&self) -> usize {
        memory::megatron_min_tp(
            &self.model,
            self.topo.num_devices(),
            self.capacity,
            self.tokens_per_device,
            self.topo.devices_per_node(),
        )
        .unwrap_or_else(|| panic!("workload must fit device memory at some TP degree"))
    }

    /// Assembles the per-layer operation durations for a routing,
    /// given the system-specific attention-communication, prefetch and
    /// gradient-sync costs.
    pub fn layer_timings(
        &self,
        routing: &laer_planner::TokenRouting,
        tp_comm: f64,
        prefetch: f64,
        grad_sync: f64,
    ) -> laer_fsep::LayerTimings {
        let dispatch = self.a2a_times(routing);
        let combine = dispatch.clone();
        laer_fsep::LayerTimings {
            attention: self.attention_forward_time() + tp_comm,
            dispatch,
            expert_forward: self.expert_forward_times(routing),
            combine,
            prefetch,
            grad_sync,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laer_model::ModelPreset;

    fn ctx(preset: ModelPreset) -> SystemContext {
        SystemContext::new(
            Topology::paper_cluster(),
            preset.config(),
            GpuSpec::a100(),
            16 * 1024,
            8192,
        )
    }

    #[test]
    fn tp_selection_follows_memory_pressure() {
        assert_eq!(ctx(ModelPreset::Mixtral8x7bE8k2).megatron_tp(), 4);
        assert_eq!(ctx(ModelPreset::Mixtral8x7bE16k4).megatron_tp(), 2);
        assert_eq!(ctx(ModelPreset::Mixtral8x22bE8k2).megatron_tp(), 4);
    }

    #[test]
    fn tp_comm_grows_with_degree() {
        let c = ctx(ModelPreset::Mixtral8x7bE8k2);
        assert_eq!(c.tp_attention_comm(1), 0.0);
        assert!(c.tp_attention_comm(4) > c.tp_attention_comm(2) * 2.0);
    }

    #[test]
    fn fsep_vs_fsdp_prefetch_ratio_near_one() {
        let c = ctx(ModelPreset::Mixtral8x7bE8k2);
        let ratio = c.fsep_prefetch_time() / c.fsdp_prefetch_time();
        // Sec. 3.1: ≈1.1 at P_fsep = 32, P_fsdp = 8 (attention-parameter
        // gather common to both pulls it slightly closer to 1).
        assert!(ratio > 1.0 && ratio < 1.15, "ratio {ratio}");
    }

    #[test]
    fn attention_time_is_macroscopic() {
        let c = ctx(ModelPreset::Mixtral8x7bE8k2);
        let t = c.attention_forward_time();
        assert!(t > 1e-3 && t < 100e-3, "attention {t}");
    }

    #[test]
    fn megatron_grad_sync_nonzero() {
        let c = ctx(ModelPreset::Mixtral8x7bE8k2);
        assert!(c.megatron_grad_sync_time(4) > 0.0);
    }

    /// With a degraded inter-node fabric installed, the same routing
    /// prices strictly slower — and clearing the view restores nominal
    /// costs.
    #[test]
    fn fault_view_raises_a2a_cost() {
        use laer_cluster::DeviceId;
        use laer_planner::lite_route;
        use laer_routing::{RoutingGenerator, RoutingGeneratorConfig};
        let mut c = ctx(ModelPreset::Mixtral8x7bE8k2);
        let demand =
            RoutingGenerator::new(RoutingGeneratorConfig::new(32, 8, 32 * 1024).with_seed(6))
                .next_iteration();
        let layout = laer_planner::ExpertLayout::classic_ep(32, 8, 2).unwrap();
        let routing = lite_route(c.topology(), &demand, &layout);
        let nominal_d = c.a2a_times(&routing);
        // Lite routing on the classic layout keeps traffic NVLink-local,
        // so degrade node 0's intra-node links.
        let mut view = DegradedView::new(c.topology().clone());
        for i in 0..8 {
            for j in (i + 1)..8 {
                view.degrade_link(DeviceId::new(i), DeviceId::new(j), 0.25);
            }
        }
        c.set_fault_view(Some(view));
        assert!(c.fault_view().is_some());
        let degraded_d = c.a2a_times(&routing);
        let nominal: f64 = nominal_d.iter().sum();
        let degraded: f64 = degraded_d.iter().sum();
        assert!(
            degraded > nominal,
            "degraded {degraded} should exceed nominal {nominal}"
        );
        c.set_fault_view(None);
        assert_eq!(c.a2a_times(&routing), nominal_d);
    }

    #[test]
    fn fsdp_degree_matches_paper_example() {
        // 32 devices, E = 8, C = 2 -> P_ep = 4, P_fsdp = 8.
        let c = ctx(ModelPreset::Mixtral8x7bE8k2);
        assert_eq!(c.fsdp_degree(), 8);
    }
}
