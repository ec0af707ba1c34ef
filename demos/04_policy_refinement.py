"""End-to-end refinement: anisotropic vs isotropic trust regions.

Trains the behavioral flow on an asymmetric two-mode task once, then refines
it twice with identical seeds, budgets and base actions: once under the Fisher (score
outer-product) metric and once under the isotropic identity metric. The
anisotropic arm moves mass along the support toward value and leaves the
low-density corridor alone; the isotropic arm pays the same price in every
direction and lands lower.

Takes a few minutes. Run:  python3 demos/04_policy_refinement.py
"""

from dataclasses import replace

from fisherflow import tasks, training, transport

task = tasks.make_task("bimodal_asymmetric")
dataset = tasks.make_dataset(task, 8192, seed=100)
print(f"task: two modes at (-2, 0) / (+2, 0), value favors the right mode,")
print(f"      a low-value saddle sits in the corridor between them")

cfg = training.RefineConfig(seed=0, steps=2500, flow_steps=1500, epsilon=0.1, eta=0.2,
                            log_interval=500)
# both arms replay one base stream: the same pretrained flow and base actions
metrics = ("fisher", "isotropic")
arms = [replace(cfg, metric=metric) for metric in metrics]
results = {}
for metric, res in zip(metrics, training.run_arms(arms, dataset, task)):
    results[metric] = res
    print(f"\n{metric} arm:")
    print(f"  base policy value    {res.final['mean_base_value']:.4f}")
    print(f"  refined policy value {res.final['mean_refined_value']:.4f}")
    print(f"  final constraint     {res.final['final_constraint']:.4f} "
          f"(epsilon {cfg.epsilon})")
    print(f"  final lambda         {res.final['final_lambda']:.4f}")

delta = (results["fisher"].final["mean_refined_value"]
         - results["isotropic"].final["mean_refined_value"])
print(f"\nfisher minus isotropic refined value: {delta:+.4f}")

grid = transport.GridSpec((-4.5, -4.5), (4.5, 4.5), (181, 181))
mix = task.density()
behavioral = transport.region_mass(mix.density(grid.mesh()), grid, task.corridor_mask)
for metric, res in results.items():
    mass = transport.pushforward_region_mass(
        mix, res.transport_map.action_map(None), grid, task.corridor_mask)
    print(f"corridor mass, {metric:9s}: {mass:.2e} (behavioral {behavioral:.2e})")
print("neither arm floods the corridor here; the value gap comes from where")
print("along the support each metric lets the policy travel")

print("\nthe same comparison is scripted as:  fisherflow ablate-metric --seeds 0,1,2")
