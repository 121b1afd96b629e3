"""Latency decomposition and utility on the default server roster.

One device, one slot. For every (server, algorithm) pair the script prints
transmission time, enhancement time, total latency and the resulting
utility, then shows which pairs the 4 s deadline rules out.
"""

import math

import numpy as np

from camsched.config import build_model, parse_config
from camsched.sysmodel import (
    Decision,
    SlotInput,
    check_feasibility,
    device_latency,
)

config = parse_config('{"devices": 1}')
model = build_model(config)
num_servers = len(model.servers)
num_algorithms = len(model.profiles)

# 20 Mbit chunk over a 20 Mbps uplink: transmission alone costs a second.
slot = SlotInput(
    datasize_bits=np.array([20e6]),
    bandwidth_bps=np.full((1, num_servers), 20e6),
    quality=np.array([[0.0, 2.4, 1.9, 1.2, 0.7]]),
)

weight = model.constants.latency_weight
deadline = model.constants.max_latency_s
print(f"deadline {deadline} s, latency weight {weight}, "
      f"overhead {model.constants.overhead_latency_s} s")
print(f"{'server':>6} {'alg':>4} {'latency_s':>10} {'utility':>9}  verdict")

for n in range(num_servers):
    for k in range(num_algorithms + 1):
        dec = Decision((n,), (k,))
        lat = device_latency(dec, 0, slot, model)
        report = check_feasibility(dec, slot, model)
        util = report.utilities[0]
        if math.isinf(lat):
            verdict = "server cannot run this algorithm"
        elif not report.latency_ok:
            verdict = "misses the deadline"
        else:
            verdict = "ok"
        lat_txt = f"{lat:10.3f}" if math.isfinite(lat) else f"{'inf':>10}"
        print(f"{n:>6} {k:>4} {lat_txt} {util:>9.3f}  {verdict}")

print("\nalgorithm 0 is the no-enhancement fallback: zero quality, zero")
print("enhancement latency, so its utility is pure transmission cost.")
