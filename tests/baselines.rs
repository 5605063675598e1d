//! Cross-design integration: the relative ordering of the virtualization
//! designs must hold on a common workload (the paper's overall story).

use vnpu::vchunk::MemMode;
use vnpu::vrouter::RoutePolicy;
use vnpu::{Hypervisor, VirtCoreId, VnpuRequest};
use vnpu_sim::machine::Machine;
use vnpu_sim::SocConfig;
use vnpu_workloads::compile::{compile, CommMode, CompileOptions};
use vnpu_workloads::models;

/// Runs GPT2-small on 8 cores under a given (memory mode, comm mode).
fn run(cfg: &SocConfig, mem: MemMode, comm: CommMode) -> f64 {
    let model = models::gpt2_small();
    let opts = CompileOptions {
        iterations: 8,
        comm,
        weight_va_base: vnpu::vnpu::GUEST_VA_BASE,
        ..Default::default()
    };
    let out = compile(&model, 8, cfg, &opts).expect("compile");
    let mut hv = Hypervisor::new(cfg.clone());
    let vm = hv
        .create_vnpu(VnpuRequest::mesh(4, 2).mem_bytes(1 << 30))
        .expect("create");
    let vnpu = hv.vnpu(vm).expect("vnpu");
    let mut machine = Machine::new(cfg.clone());
    let tenant = machine.add_tenant("model");
    for (v, p) in out.programs.iter().enumerate() {
        let vcore = VirtCoreId(v as u32);
        machine
            .bind_with(
                vnpu.phys_core(vcore).unwrap(),
                tenant,
                v as u32,
                p.clone(),
                vnpu.services_with(vcore, mem, RoutePolicy::Dor).unwrap(),
            )
            .unwrap();
    }
    machine.run().unwrap().fps(tenant)
}

#[test]
fn design_ordering_holds() {
    let cfg = SocConfig::sim();
    let vnpu_fps = run(&cfg, MemMode::vchunk(), CommMode::Noc);
    let uvm_fps = run(&cfg, MemMode::Page { tlb_entries: 32 }, CommMode::Uvm);
    let physical_noc = run(&cfg, MemMode::Physical, CommMode::Noc);

    // vNPU ~= ideal physical memory with NoC (vChunk is nearly free).
    assert!(
        vnpu_fps > physical_noc * 0.95,
        "vChunk must be nearly free: {vnpu_fps:.1} vs {physical_noc:.1}"
    );
    // NoC data flow beats UVM global-memory synchronization.
    assert!(
        vnpu_fps > uvm_fps * 1.2,
        "inter-core connections must win: {vnpu_fps:.1} vs {uvm_fps:.1}"
    );
}

#[test]
fn noc_isolation_does_not_cost_performance_on_regular_allocations() {
    // For a rectangular vNPU, confined routing uses the same shortest
    // paths as DOR, so isolation should be free.
    let cfg = SocConfig::sim();
    let model = models::resnet18();
    let opts = CompileOptions {
        iterations: 6,
        weight_va_base: vnpu::vnpu::GUEST_VA_BASE,
        ..Default::default()
    };
    let out = compile(&model, 9, &cfg, &opts).expect("compile");
    let run_policy = |policy| {
        let mut hv = Hypervisor::new(cfg.clone());
        let vm = hv
            .create_vnpu(VnpuRequest::mesh(3, 3).mem_bytes(256 << 20))
            .unwrap();
        let vnpu = hv.vnpu(vm).unwrap();
        let mut machine = Machine::new(cfg.clone());
        let tenant = machine.add_tenant("r18");
        for (v, p) in out.programs.iter().enumerate() {
            let vcore = VirtCoreId(v as u32);
            machine
                .bind_with(
                    vnpu.phys_core(vcore).unwrap(),
                    tenant,
                    v as u32,
                    p.clone(),
                    vnpu.services_with(vcore, MemMode::vchunk(), policy)
                        .unwrap(),
                )
                .unwrap();
        }
        machine.run().unwrap().fps(tenant)
    };
    let dor = run_policy(RoutePolicy::Dor);
    let confined = run_policy(RoutePolicy::Confined);
    let ratio = confined / dor;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "confinement on a rectangle must be free: {ratio:.3}"
    );
}

/// One cell's simulated counters, rendered: the five report scalars,
/// then `core:lookups/hits/misses/probe_reads/cycles` per bound thread.
fn counters(report: &vnpu_sim::Report) -> String {
    let mut line = format!(
        "makespan={} noc_packets={} noc_contention={} hbm_wait={} translation={} |",
        report.makespan(),
        report.noc_packets(),
        report.noc_contention_cycles(),
        report.hbm_wait_cycles(),
        report.translation_cycles(),
    );
    for (core, s) in report.translator_stats() {
        line.push_str(&format!(
            " {core}:{}/{}/{}/{}/{}",
            s.lookups, s.hits, s.misses, s.probe_reads, s.cycles
        ));
    }
    line
}

/// The paper cells the benchmark's `paper_static` runs (same models,
/// options and provisioning), one row per figure, each built by the
/// figure's own `cell`: Fig. 14 ResNet18 and BERT-base (the longest DMA
/// streams, 664 320 bursts a cell) × the four memory modes, AlexNet (weight
/// slices that start mid-page) × the two IOTLB sizes, GoogLeNet physical
/// (10 154 213 contention cycles: packets wait on links), Fig. 15
/// transformer blocks 128 and 64 × {vNPU, UVM-32}, Fig. 16 36-core
/// GPT2-small + ResNet34 and 48-core GPT2-small + GPT2-large (319 488
/// packets a cell) × {vNPU, bare metal, MIG}.
fn paper_cells() -> Vec<(&'static str, String)> {
    use vnpu_bench::figs::{fig14_mem_virt, fig15_vnpu_vs_uvm, fig16_vnpu_vs_mig};
    use vnpu_bench::Design;

    let mut cells = Vec::new();
    let fpga = SocConfig::fpga();
    let (resnet18, bert_base, alexnet, googlenet) = (
        models::resnet18(),
        models::bert_base(),
        models::alexnet(),
        models::googlenet(),
    );
    for (name, model, mode) in [
        ("fig14/resnet18/physical", &resnet18, MemMode::Physical),
        (
            "fig14/resnet18/range4",
            &resnet18,
            MemMode::Range { tlb_entries: 4 },
        ),
        (
            "fig14/resnet18/page32",
            &resnet18,
            MemMode::Page { tlb_entries: 32 },
        ),
        (
            "fig14/resnet18/page4",
            &resnet18,
            MemMode::Page { tlb_entries: 4 },
        ),
        ("fig14/bert_base/physical", &bert_base, MemMode::Physical),
        (
            "fig14/bert_base/range4",
            &bert_base,
            MemMode::Range { tlb_entries: 4 },
        ),
        (
            "fig14/bert_base/page32",
            &bert_base,
            MemMode::Page { tlb_entries: 32 },
        ),
        (
            "fig14/bert_base/page4",
            &bert_base,
            MemMode::Page { tlb_entries: 4 },
        ),
        (
            "fig14/alexnet/page32",
            &alexnet,
            MemMode::Page { tlb_entries: 32 },
        ),
        (
            "fig14/alexnet/page4",
            &alexnet,
            MemMode::Page { tlb_entries: 4 },
        ),
        ("fig14/googlenet/physical", &googlenet, MemMode::Physical),
    ] {
        let report = fig14_mem_virt::cell(&fpga, model, mode, 16);
        cells.push((name, counters(&report)));
    }
    let sim = SocConfig::sim();
    let (block128, block64) = (
        models::transformer_block(128, 16),
        models::transformer_block(64, 16),
    );
    for (name, block, design) in [
        ("fig15/transformer_block_128/vnpu", &block128, Design::Vnpu),
        (
            "fig15/transformer_block_128/uvm32",
            &block128,
            Design::Uvm { iotlb: 32 },
        ),
        ("fig15/transformer_block_64/vnpu", &block64, Design::Vnpu),
        (
            "fig15/transformer_block_64/uvm32",
            &block64,
            Design::Uvm { iotlb: 32 },
        ),
    ] {
        let report = fig15_vnpu_vs_uvm::cell(&sim, block, design, 32);
        cells.push((name, counters(&report)));
    }
    let (small, resnet34, large) = (
        models::gpt2_small(),
        models::resnet34(),
        models::gpt2_large(),
    );
    for (name, resnet_cores, design) in [
        ("fig16/36c_gpt2s_resnet34/vnpu", 24, Some(Design::Vnpu)),
        ("fig16/36c_gpt2s_resnet34/bare", 24, Some(Design::BareMetal)),
        ("fig16/36c_gpt2s_resnet34/mig", 18, None),
    ] {
        let report =
            fig16_vnpu_vs_mig::cell(&sim, (&small, 12), (&resnet34, resnet_cores), design, 96);
        cells.push((name, counters(&report)));
    }
    let sim48 = SocConfig::sim48();
    for (name, design) in [
        ("fig16/48c_gpt2s_gpt2l/vnpu", Some(Design::Vnpu)),
        ("fig16/48c_gpt2s_gpt2l/bare", Some(Design::BareMetal)),
        ("fig16/48c_gpt2s_gpt2l/mig", None),
    ] {
        let report = fig16_vnpu_vs_mig::cell(&sim48, (&small, 12), (&large, 36), design, 96);
        cells.push((name, counters(&report)));
    }
    cells
}

/// Absolute values of the reproduced paper cells, captured at the parent
/// of the PR that rewrote the simulator's miss path (page table, IOTLB,
/// packet arrivals): a change to `sim` or `mem` that moves any simulated
/// number — not only a frame rate — fails here, printing the table to
/// paste when the move is meant.
#[test]
fn paper_cells_are_pinned() {
    let cells = paper_cells();
    let pinned = cells.len() == PAPER_CELL_PINS.len()
        && cells
            .iter()
            .zip(PAPER_CELL_PINS)
            .all(|((name, line), (pin_name, pin))| name == pin_name && line == pin);
    if !pinned {
        let mut table = String::new();
        for (name, line) in &cells {
            table.push_str(&format!(
                "    (\n        \"{name}\",\n        \"{line}\",\n    ),\n"
            ));
        }
        panic!("paper cells moved; the simulator now yields:\n{table}");
    }
}

const PAPER_CELL_PINS: &[(&str, &str)] = &[
    (
        "fig14/resnet18/physical",
        "makespan=33121883 noc_packets=14800 noc_contention=6720 hbm_wait=2541612442 translation=0 | 0:96/96/0/0/0 1:288/288/0/0/0 2:288/288/0/0/0 3:288/288/0/0/0 4:864/864/0/0/0 5:2368/2368/0/0/0 6:26752/26752/0/0/0 7:60320/60320/0/0/0",
    ),
    (
        "fig14/resnet18/range4",
        "makespan=33122190 noc_packets=14800 noc_contention=6720 hbm_wait=2536158073 translation=91352 | 0:96/95/1/1/107 1:288/287/1/1/299 2:288/287/1/1/299 3:288/287/1/1/299 4:864/863/1/1/875 5:2368/2367/1/1/2379 6:26752/26751/1/1/26763 7:60320/60319/1/1/60331",
    ),
    (
        "fig14/resnet18/page32",
        "makespan=42517631 noc_packets=14800 noc_contention=6720 hbm_wait=75636291 translation=9057835 | 0:112/109/3/3/709 1:432/422/10/10/2422 2:432/422/10/10/2422 3:432/422/10/10/2422 4:1296/1268/28/28/6868 5:3552/2352/1200/1200/242352 6:40128/26736/13392/13392/2705136 7:90480/60304/30176/30176/6095504",
    ),
    (
        "fig14/resnet18/page4",
        "makespan=42640990 noc_packets=14800 noc_contention=6720 hbm_wait=31276542 translation=9230965 | 0:112/109/3/3/709 1:432/272/160/160/32272 2:432/272/160/160/32272 3:432/272/160/160/32272 4:1296/848/448/448/90448 5:3552/2352/1200/1200/242352 6:40128/26736/13392/13392/2705136 7:90480/60304/30176/30176/6095504",
    ),
    (
        "fig14/bert_base/physical",
        "makespan=180944946 noc_packets=10752 noc_contention=0 hbm_wait=24214936240 translation=0 | 0:74496/74496/0/0/0 1:92160/92160/0/0/0 2:73728/73728/0/0/0 3:92160/92160/0/0/0 4:73728/73728/0/0/0 5:92160/92160/0/0/0 6:73728/73728/0/0/0 7:92160/92160/0/0/0",
    ),
    (
        "fig14/bert_base/range4",
        "makespan=180945249 noc_packets=10752 noc_contention=0 hbm_wait=24173089504 translation=664408 | 0:74496/74495/1/1/74507 1:92160/92159/1/1/92171 2:73728/73727/1/1/73739 3:92160/92159/1/1/92171 4:73728/73727/1/1/73739 5:92160/92159/1/1/92171 6:73728/73727/1/1/73739 7:92160/92159/1/1/92171",
    ),
    (
        "fig14/bert_base/page32",
        "makespan=195426910 noc_packets=10752 noc_contention=0 hbm_wait=382496022 translation=67121408 | 0:111360/74096/37264/37264/7526896 1:138240/92144/46096/46096/9311344 2:110592/73712/36880/36880/7449712 3:138240/92144/46096/46096/9311344 4:110592/73712/36880/36880/7449712 5:138240/92144/46096/46096/9311344 6:110592/73712/36880/36880/7449712 7:138240/92144/46096/46096/9311344",
    ),
    (
        "fig14/bert_base/page4",
        "makespan=195426910 noc_packets=10752 noc_contention=0 hbm_wait=382496022 translation=67121408 | 0:111360/74096/37264/37264/7526896 1:138240/92144/46096/46096/9311344 2:110592/73712/36880/36880/7449712 3:138240/92144/46096/46096/9311344 4:110592/73712/36880/36880/7449712 5:138240/92144/46096/46096/9311344 6:110592/73712/36880/36880/7449712 7:138240/92144/46096/46096/9311344",
    ),
    (
        "fig14/alexnet/page32",
        "makespan=83614191 noc_packets=5408 noc_contention=1005584 hbm_wait=198345864 translation=22732399 | 0:288/279/9/9/2079 1:1808/1184/624/624/125984 2:1792/1184/608/608/122784 3:3600/2384/1216/1216/245584 4:10368/6896/3472/3472/701296 5:25920/17264/8656/8656/1748464 6:147456/98288/49168/49168/9931888 7:146304/97520/48784/48784/9854320",
    ),
    (
        "fig14/alexnet/page4",
        "makespan=83614191 noc_packets=5408 noc_contention=1005584 hbm_wait=197803704 translation=22759264 | 0:288/144/144/144/28944 1:1808/1184/624/624/125984 2:1792/1184/608/608/122784 3:3600/2384/1216/1216/245584 4:10368/6896/3472/3472/701296 5:25920/17264/8656/8656/1748464 6:147456/98288/49168/49168/9931888 7:146304/97520/48784/48784/9854320",
    ),
    (
        "fig14/googlenet/physical",
        "makespan=27293806 noc_packets=20576 noc_contention=10154213 hbm_wait=692956828 translation=0 | 0:96/96/0/0/0 1:224/224/0/0/0 2:224/224/0/0/0 3:448/448/0/0/0 4:1296/1296/0/0/0 5:2240/2240/0/0/0 6:3296/3296/0/0/0 7:46928/46928/0/0/0",
    ),
    (
        "fig15/transformer_block_128/vnpu",
        "makespan=58791 noc_packets=352 noc_contention=0 hbm_wait=34235 translation=172 | 0:56/55/1/1/67 1:8/7/1/1/19 6:32/31/1/1/43 7:32/31/1/1/43",
    ),
    (
        "fig15/transformer_block_128/uvm32",
        "makespan=156667 noc_packets=0 noc_contention=0 hbm_wait=725389 translation=13170 | 0:184/169/15/15/3169 1:232/222/10/10/2222 6:224/205/19/19/4005 7:192/174/18/18/3774",
    ),
    (
        "fig15/transformer_block_64/vnpu",
        "makespan=37720 noc_packets=224 noc_contention=10 hbm_wait=2234 translation=100 | 0:38/37/1/1/49 1:2/1/1/1/13 6:8/7/1/1/19 7:8/7/1/1/19",
    ),
    (
        "fig15/transformer_block_64/uvm32",
        "makespan=93336 noc_packets=0 noc_contention=0 hbm_wait=180141 translation=4683 | 0:134/129/5/5/1129 1:98/95/3/3/695 6:168/161/7/7/1561 7:104/98/6/6/1298",
    ),
    (
        "fig16/36c_gpt2s_resnet34/vnpu",
        "makespan=8150956 noc_packets=172704 noc_contention=3266368 hbm_wait=2276614139 translation=54894 | 0:5760/5759/1/1/5771 1:3456/3455/1/1/3467 2:3456/3455/1/1/3467 3:3456/3455/1/1/3467 6:3456/3455/1/1/3467 7:3456/3455/1/1/3467 8:3456/3455/1/1/3467 9:3456/3455/1/1/3467 12:3456/3455/1/1/3467 13:3456/3455/1/1/3467 14:3456/3455/1/1/3467 15:3456/3455/1/1/3467 4:10/9/1/1/21 5:10/9/1/1/21 11:18/17/1/1/29 10:36/35/1/1/47 16:36/35/1/1/47 17:54/53/1/1/65 18:18/17/1/1/29 19:18/17/1/1/29 20:256/255/1/1/267 21:720/719/1/1/731 22:880/879/1/1/891 23:864/863/1/1/875 24:864/863/1/1/875 25:864/863/1/1/875 26:576/575/1/1/587 27:576/575/1/1/587 28:640/639/1/1/651 29:576/575/1/1/587 35:576/575/1/1/587 34:576/575/1/1/587 33:576/575/1/1/587 32:576/575/1/1/587 31:576/575/1/1/587 30:826/825/1/1/837",
    ),
    (
        "fig16/36c_gpt2s_resnet34/bare",
        "makespan=8150555 noc_packets=172704 noc_contention=2916388 hbm_wait=2299896858 translation=0 | 0:5760/5760/0/0/0 1:3456/3456/0/0/0 2:3456/3456/0/0/0 3:3456/3456/0/0/0 6:3456/3456/0/0/0 7:3456/3456/0/0/0 8:3456/3456/0/0/0 9:3456/3456/0/0/0 12:3456/3456/0/0/0 13:3456/3456/0/0/0 14:3456/3456/0/0/0 15:3456/3456/0/0/0 4:10/10/0/0/0 5:10/10/0/0/0 11:18/18/0/0/0 10:36/36/0/0/0 16:36/36/0/0/0 17:54/54/0/0/0 18:18/18/0/0/0 19:18/18/0/0/0 20:256/256/0/0/0 21:720/720/0/0/0 22:880/880/0/0/0 23:864/864/0/0/0 24:864/864/0/0/0 25:864/864/0/0/0 26:576/576/0/0/0 27:576/576/0/0/0 28:640/640/0/0/0 29:576/576/0/0/0 35:576/576/0/0/0 34:576/576/0/0/0 33:576/576/0/0/0 32:576/576/0/0/0 31:576/576/0/0/0 30:826/826/0/0/0",
    ),
    (
        "fig16/36c_gpt2s_resnet34/mig",
        "makespan=8088505 noc_packets=142272 noc_contention=10752 hbm_wait=1932825656 translation=0 | 0:5760/5760/0/0/0 1:3456/3456/0/0/0 2:3456/3456/0/0/0 6:3456/3456/0/0/0 7:3456/3456/0/0/0 8:3456/3456/0/0/0 12:3456/3456/0/0/0 13:3456/3456/0/0/0 14:3456/3456/0/0/0 18:3456/3456/0/0/0 19:3456/3456/0/0/0 20:3456/3456/0/0/0 3:5/5/0/0/0 4:5/5/0/0/0 5:18/18/0/0/0 9:18/18/0/0/0 10:18/18/0/0/0 11:18/18/0/0/0 15:18/18/0/0/0 16:130/130/0/0/0 17:864/864/0/0/0 21:1168/1168/0/0/0 22:1152/1152/0/0/0 23:1152/1152/0/0/0 27:1152/1152/0/0/0 28:640/640/0/0/0 29:1152/1152/0/0/0 33:1152/1152/0/0/0 34:1152/1152/0/0/0 35:826/826/0/0/0",
    ),
    (
        "fig16/48c_gpt2s_gpt2l/vnpu",
        "makespan=25069582 noc_packets=319488 noc_contention=0 hbm_wait=97131282041 translation=394072 | 0:5760/5759/1/1/5771 1:3456/3455/1/1/3467 2:3456/3455/1/1/3467 3:3456/3455/1/1/3467 8:3456/3455/1/1/3467 9:3456/3455/1/1/3467 10:3456/3455/1/1/3467 11:3456/3455/1/1/3467 16:3456/3455/1/1/3467 17:3456/3455/1/1/3467 18:3456/3455/1/1/3467 19:3456/3455/1/1/3467 4:13440/13439/1/1/13451 5:9600/9599/1/1/9611 6:9600/9599/1/1/9611 31:9600/9599/1/1/9611 23:9600/9599/1/1/9611 15:9600/9599/1/1/9611 12:9600/9599/1/1/9611 13:9600/9599/1/1/9611 14:9600/9599/1/1/9611 22:9600/9599/1/1/9611 21:9601/9599/2/3/9631 7:9600/9599/1/2/9619 20:9600/9599/1/2/9619 28:9600/9599/1/2/9619 29:9600/9599/1/2/9619 30:9600/9599/1/2/9619 34:9600/9599/1/2/9619 26:9600/9599/1/2/9619 33:9600/9599/1/2/9619 25:9600/9599/1/2/9619 37:9600/9599/1/2/9619 36:9600/9599/1/2/9619 35:9600/9599/1/2/9619 27:9600/9599/1/2/9619 32:9601/9599/2/4/9639 24:9600/9599/1/3/9627 38:9600/9599/1/3/9627 41:9600/9599/1/3/9627 42:9600/9599/1/3/9627 43:9600/9599/1/3/9627 40:9600/9599/1/3/9627 44:9600/9599/1/3/9627 45:9600/9599/1/3/9627 46:9600/9599/1/3/9627 47:9600/9599/1/3/9627 39:9600/9599/1/3/9627",
    ),
    (
        "fig16/48c_gpt2s_gpt2l/bare",
        "makespan=25068045 noc_packets=319488 noc_contention=0 hbm_wait=98122662768 translation=0 | 0:5760/5760/0/0/0 1:3456/3456/0/0/0 2:3456/3456/0/0/0 3:3456/3456/0/0/0 8:3456/3456/0/0/0 9:3456/3456/0/0/0 10:3456/3456/0/0/0 11:3456/3456/0/0/0 16:3456/3456/0/0/0 17:3456/3456/0/0/0 18:3456/3456/0/0/0 19:3456/3456/0/0/0 4:13440/13440/0/0/0 5:9600/9600/0/0/0 6:9600/9600/0/0/0 31:9600/9600/0/0/0 23:9600/9600/0/0/0 15:9600/9600/0/0/0 12:9600/9600/0/0/0 13:9600/9600/0/0/0 14:9600/9600/0/0/0 22:9600/9600/0/0/0 21:9600/9600/0/0/0 7:9600/9600/0/0/0 20:9600/9600/0/0/0 28:9600/9600/0/0/0 29:9600/9600/0/0/0 30:9600/9600/0/0/0 34:9600/9600/0/0/0 26:9600/9600/0/0/0 33:9600/9600/0/0/0 25:9600/9600/0/0/0 37:9600/9600/0/0/0 36:9600/9600/0/0/0 35:9600/9600/0/0/0 27:9600/9600/0/0/0 32:9600/9600/0/0/0 24:9600/9600/0/0/0 38:9600/9600/0/0/0 41:9600/9600/0/0/0 42:9600/9600/0/0/0 43:9600/9600/0/0/0 40:9600/9600/0/0/0 44:9600/9600/0/0/0 45:9600/9600/0/0/0 46:9600/9600/0/0/0 47:9600/9600/0/0/0 39:9600/9600/0/0/0",
    ),
    (
        "fig16/48c_gpt2s_gpt2l/mig",
        "makespan=41243311 noc_packets=319488 noc_contention=0 hbm_wait=111076672368 translation=0 | 0:5760/5760/0/0/0 1:3456/3456/0/0/0 2:3456/3456/0/0/0 3:3456/3456/0/0/0 8:3456/3456/0/0/0 9:3456/3456/0/0/0 10:3456/3456/0/0/0 11:3456/3456/0/0/0 16:3456/3456/0/0/0 17:3456/3456/0/0/0 18:3456/3456/0/0/0 19:3456/3456/0/0/0 4:13440/13440/0/0/0 5:9600/9600/0/0/0 6:9600/9600/0/0/0 7:9600/9600/0/0/0 12:9600/9600/0/0/0 13:9600/9600/0/0/0 14:9600/9600/0/0/0 15:9600/9600/0/0/0 20:9600/9600/0/0/0 21:9600/9600/0/0/0 22:9600/9600/0/0/0 23:9600/9600/0/0/0 28:9600/9600/0/0/0 29:9600/9600/0/0/0 30:9600/9600/0/0/0 31:9600/9600/0/0/0 36:9600/9600/0/0/0 37:9600/9600/0/0/0 38:9600/9600/0/0/0 39:9600/9600/0/0/0 44:9600/9600/0/0/0 45:9600/9600/0/0/0 46:9600/9600/0/0/0 47:9600/9600/0/0/0 4:9600/9600/0/0/0 5:9600/9600/0/0/0 6:9600/9600/0/0/0 7:9600/9600/0/0/0 12:9600/9600/0/0/0 13:9600/9600/0/0/0 14:9600/9600/0/0/0 15:9600/9600/0/0/0 20:9600/9600/0/0/0 21:9600/9600/0/0/0 22:9600/9600/0/0/0 23:9600/9600/0/0/0",
    ),
];
