"""Wall-clock estimates on exchange-coupled spin hardware.

Exchange pulses are effectively free (tens of picoseconds); single-qubit
rotations cost tens of nanoseconds.  The schedule therefore counts local
layers above all, and the three-pulse compilation beats the naive
CNOT-by-CNOT expansion by roughly a factor of three.
"""

from swapsynth import (
    Circuit,
    builtin_profile,
    compare_backends,
    haar_random_unitary,
    local_op,
    named_gate,
    schedule_circuit,
    swap_op,
    synthesize_swap,
)


def fmt(seconds):
    return f"{seconds * 1e9:9.3f} ns"


for profile_name in ("gaas", "si"):
    profile = builtin_profile(profile_name)
    print(f"profile {profile.name}: pi rotation {fmt(profile.pi_rotation_time_s)},"
          f" full SWAP {profile.swap_full_time_s * 1e12:.0f} ps")
    sched = schedule_circuit(synthesize_swap(named_gate("cnot")), profile)
    for i, layer in enumerate(sched.layers):
        print(f"  layer {i}: {layer.kind:9s} {fmt(layer.duration_s)}")
    print(f"  total {fmt(sched.total_time_s)}\n")

# A circuit built by hand: gates on distinct qubits share a layer, a pulse
# stands alone, and a second gate on one qubit opens a new layer.
by_hand = Circuit([
    local_op(1, named_gate("hadamard"), "H"),
    local_op(2, named_gate("x"), "X"),
    swap_op(0.5),
    local_op(1, named_gate("z"), "Z"),
    local_op(1, named_gate("hadamard"), "H"),
])
sched = schedule_circuit(by_hand, builtin_profile("gaas"))
print("hand-built circuit (gaas):", [list(layer.op_indices) for layer in sched.layers],
      fmt(sched.total_time_s) + "\n")

report = compare_backends(haar_random_unitary(4, seed=17), builtin_profile("gaas"))
print("backend comparison on a random target (gaas):")
for name in ("swap", "cnot", "naive"):
    entry = report["backends"][name]
    print(f"  {name:6s} {fmt(entry['total_time_s'])}   {entry['local_layers']} local layers")
print("\n" + report["note"])
