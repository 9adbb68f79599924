"""Pinned bytes of every registered workload's packed trace.

``test_compiled_stream_replays_generator_exactly`` compares a compiled
stream with the generator it came from, so it cannot see a generator
whose output changed.  These digests can: each is the SHA-256 over
``arena_bytes(pack_records(...))`` of every core of one registered
workload, at two settings:

* scale 0.02, seed 7, 3,000 records per core (the test-suite scale);
* scale 1.0, seed 1234, 2,000 records per core (the size of a served
  screening job), which builds every full-size pointer-chase pool,
  Zipf placement and replay sequence.

Never regenerate a digest to make a change pass.  A digest that moves
means some generator's record stream changed for a given (name, seed,
scale): that is a ``STREAM_VERSION`` bump
(:mod:`repro.workloads.registry`), which invalidates every compiled
trace cache entry and moves the pinned ``SimResult`` digests with it.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.sim.compile.packed import arena_bytes, pack_records
from repro.workloads.registry import available_workloads, make_workload

#: (seed, scale, records per core) -> workload name -> arena SHA-256
DIGESTS = {
    (7, 0.02, 3000): {
        "data_serving": "0b9847259b7e8876e25a78b24d2ffd03a11b07da9975975a40f8f4b815807629",
        "sat_solver": "4b4abce29e91790ef90a09c476be835a893323bbbfe49dfd190a2e59c8762a24",
        "streaming": "9969a0ec7e49e109d343dc60d39f2591478357e7cfa1e88575e7e64720c9570f",
        "zeus": "3d455ac1001de59de48be23a87f721416cea592680f31405b1afd1b3c35e03be",
        "em3d": "cd6d637af40bc9ed32971b1c6671106d31023e429c2a07b87f1fd06605ded250",
        "mix1": "41b23857cdb82271ed870223261cf7c5a5c9ff779b45daae78dc5a04e24201a3",
        "mix2": "ebdf51191ccc09ffe715b3a3624f6dbfe1fdf8d0205ab897261ac98ba30b45c5",
        "mix3": "9a6d2290949c45292e1c93616dc8d45cd4451647a1e3c972dca2a07716c58d7f",
        "mix4": "cd6c5f2ee2b05d207cf005780e6e246232a3f859ae48d0f91a6eaed08c3c10e4",
        "mix5": "f39c723797ffb17956af75d647849563c8594e85c091418a9f7a2d2baa52aca8",
        "zipf": "14357c4463cb97045af77a3a176f1d175ee970390f3e9e3ee2ef848acfb291c0",
        "phase_shift": "220306540cc94c9f2b884ed9c140faf4256bc9fc411ecf42b5cc5acf0ee95312",
        "oscillate": "6829a8021e01c4abb5294e439e937af865fcebe6e4ebc95442e9a24b6f6c7763",
    },
    (1234, 1.0, 2000): {
        "data_serving": "f6889dd19c6b7ad592588b838a806dcd06f52aea5729df44c6c37432a4f5b721",
        "sat_solver": "9715f07517072b5b04ca2a92902c4a6bbfb01525ba8ef2f47e264085e80f723c",
        "streaming": "3863996f692bfa0cf7ce7d593983f1908dccbd2e935c7b9e1ab603e5d235fa1d",
        "zeus": "dc99ab50546ccaf9b86ed0b3f1365c95f1e3fb153bb91937408723c08be94e25",
        "em3d": "44585d417fc1dbae1bb5441e6b544a87f230e140937a7422dd9d90008216fccb",
        "mix1": "d53f5778e579e10e53ee3090176ea9739a022c4ba25908a4beaea15fd2b54ddc",
        "mix2": "292c666522f461e2b7c2c174b537b610b0860214d2dcd69f6564038bac6f5ba3",
        "mix3": "f74d70df23732e37e11ef49f3e26e282190816fc8ff4c54dcb8a2ee243da51eb",
        "mix4": "dc155ae3764fb2abb47c454261bc39038145098c49d1ba365831ac3b59cf7dbf",
        "mix5": "535c9c79ebf194f31dd0d5e0087177cc43f8c7b8d5b09988be293c270d5f76d2",
        "zipf": "1a877b44ed41d0aaf9088c27a5e432f7d94c3ae958c15d9447794427219a30e2",
        "phase_shift": "2c143f92c37def1ce69b61a21dc8d444e1b725ada4e224b3f134c5efa0bf8cc2",
        "oscillate": "552bedfbd5f094fcfa60e721bf75cddebc1b3ea942297db6f3a97c04fede08c0",
    },
}


def arena_digest(name: str, seed: int, scale: float, records: int) -> str:
    workload = make_workload(name, seed=seed, scale=scale)
    cores = [
        pack_records(workload.core_stream(core_id), records)
        for core_id in range(workload.num_cores)
    ]
    sha = hashlib.sha256()
    for section in arena_bytes(cores):
        sha.update(section)
    return sha.hexdigest()


def test_every_registered_workload_is_pinned():
    for pinned in DIGESTS.values():
        assert sorted(pinned) == sorted(available_workloads())


@pytest.mark.parametrize("setting", sorted(DIGESTS), ids=lambda s: "seed{}-scale{}-{}".format(*s))
@pytest.mark.parametrize("name", available_workloads())
def test_packed_stream_bytes_are_pinned(name, setting):
    seed, scale, records = setting
    assert arena_digest(name, seed, scale, records) == DIGESTS[setting][name]
