//! The platform's §1 vision made concrete: heterogeneous devices at
//! multiple vantage points, dispatched from the access server's one queue.
//!
//! Three nodes — a flagship, the paper's mid-ranger, a budget phone —
//! each run the same Brave workload; the per-device energy differences
//! are exactly the kind of result a single-bench testbed can't produce.
//!
//! ```sh
//! cargo run --release --example heterogeneous_fleet
//! ```

use std::collections::BTreeMap;

use batterylab::automation::Script;
use batterylab::controller::{VantageConfig, VantagePoint};
use batterylab::device::{AndroidDevice, DeviceSpec, PowerModel};
use batterylab::net::LinkProfile;
use batterylab::server::{BuildState, Constraints, ExperimentSpec, Payload, Scheduler};
use batterylab::sim::SimRng;

fn main() {
    let rng = SimRng::new(77);

    // Three vantage points with three very different phones.
    let fleet_spec: [(&str, &str, PowerModel, DeviceSpec); 3] = [
        (
            "node-london",
            "j7duo-01",
            PowerModel::samsung_j7_duo(),
            DeviceSpec::samsung_j7_duo(),
        ),
        (
            "node-zurich",
            "pixel3-01",
            PowerModel::pixel_3(),
            DeviceSpec {
                model: "Pixel 3".to_string(),
                product: "blueline".to_string(),
                api_level: 28,
                battery_mah: 2915.0,
                ..DeviceSpec::samsung_j7_duo()
            },
        ),
        (
            "node-delhi",
            "galaxy-a10-01",
            PowerModel::budget_a10(),
            DeviceSpec {
                model: "Galaxy A10".to_string(),
                product: "a10".to_string(),
                api_level: 28,
                cpu_cores: 4,
                battery_mah: 3400.0,
                ..DeviceSpec::samsung_j7_duo()
            },
        ),
    ];

    let mut nodes = BTreeMap::new();
    for (node_name, serial, model, spec) in fleet_spec.iter().cloned() {
        let mut vp = VantagePoint::new(
            VantageConfig {
                name: node_name.to_string(),
                uplink: LinkProfile::campus_uplink(),
                wifi_ap: LinkProfile::fast_wifi(),
                relay_channels: 2,
            },
            rng.derive(node_name),
        );
        let device = AndroidDevice::new_with_model(
            spec,
            model,
            serial,
            rng.derive(&format!("dev/{serial}")),
            true,
        );
        device.install_package("com.brave.browser");
        vp.add_device(device);
        nodes.insert(node_name.to_string(), vp);
    }

    // One job per node, pinned by constraint; the scheduler places each
    // on its node and runs the queue dry.
    let mut scheduler = Scheduler::new();
    let script = Script::browser_workload(
        "com.brave.browser",
        &[
            "https://news.bbc.co.uk",
            "https://reuters.com",
            "https://cnn.com",
        ],
        4,
    );
    for (node_name, serial, _, _) in fleet_spec.iter() {
        scheduler.submit(
            &format!("brave-on-{serial}"),
            "demo",
            Constraints {
                node: Some(node_name.to_string()),
                ..Constraints::default()
            },
            Payload::Experiment(ExperimentSpec::measured(serial, script.clone())),
        );
    }
    let ran = scheduler.drain(&mut nodes);
    assert_eq!(ran.len(), 3, "every node runs its job");

    println!("ran 3 measured workloads across the fleet\n");
    println!("{:<14} {:>14} {:>12}", "node", "discharge mAh", "mean mA");
    for id in ran {
        let build = scheduler.build(id).expect("build recorded");
        assert_eq!(build.state, BuildState::Succeeded, "{}", build.name);
        let summary = build
            .summary
            .as_ref()
            .expect("succeeded builds carry a summary");
        println!(
            "{:<14} {:>14.3} {:>12.1}",
            build.node.as_deref().unwrap_or("-"),
            summary["discharge_mah"].as_f64().unwrap_or(0.0),
            summary["mean_ma"].as_f64().unwrap_or(0.0),
        );
    }
    println!("\nsame workload, three devices — the heterogeneity §1 argues only a shared platform can offer.");
}
