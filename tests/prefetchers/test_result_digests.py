"""Pinned results for the prefetchers off the region front end.

``tests/core/test_region_digests.py`` pins Bingo, SMS, SFP and the
multi-event prefetcher; the golden traces pin BOP's and SPP's event
streams.  These digests pin the whole ``SimResult`` of the nine
remaining prefetchers, so a change to a training record, a candidate's
shape or the miss path that feeds them cannot move a result unnoticed.

Settings and digest are those of ``test_region_digests.py``:
``small_system(4)``, scale 0.02, 8,000 instructions per core with a
1,000-instruction warm-up, seed 11, a compiled trace, and the sha256 of
``json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))``.
Never regenerate one to make a change pass: a moved digest is a
behaviour change.
"""

import functools
import hashlib
import json

import pytest

from repro.common.config import small_system
from repro.sim.runner import run_simulation

PREFETCHERS = (
    "ampm", "bop", "ghb", "markov", "nextline", "sandbox", "spp", "stride", "vldp",
)
WORKLOADS = ("mix3", "em3d", "sat_solver")

DIGESTS = {
    ("mix3", "ampm"):
        "d7690203c6cacb280a61c295edf4dcbbfd5646b403553ca7cebbb1f5dbbe2bb9",
    ("mix3", "bop"):
        "e3984c5578f336945ec34152d6639abbe46f0fa560d7227ad21bd9b7e19392b6",
    ("mix3", "ghb"):
        "05847cf31265ab1dfb3078bf2bdb2cbd56c4a19ae1c66f8bdc009fb6889e94af",
    ("mix3", "markov"):
        "a3c0b41b2de272027b5382eeba8eddc80ad0aefef2852d6dd688df81281d4edf",
    ("mix3", "nextline"):
        "0272572f739857491b2950b2fd449e1fa25a7af34c0c5098b825b3daa97c1c79",
    ("mix3", "sandbox"):
        "82a51b11f0a3fa65237645a1a1433aadcfc16dae078801b53f100042220d33d4",
    ("mix3", "spp"):
        "c9f38abadbccadb72d59a3fa706f0317218ecdcc9a98ed5218b12b9f4f9cdbda",
    ("mix3", "stride"):
        "eace761d2dd4e8731cd3195cc7fe3cd853fd847e1ef3dbe170e255b3b86679f6",
    ("mix3", "vldp"):
        "ca92b62bad06f67f1588107af2bb581f8e6e40deca2801dc68cd40c60d8c0e5e",
    ("em3d", "ampm"):
        "3f9680158aec7476121fceebc9168bab2933c65fe910ab82f4cea54ce87267b6",
    ("em3d", "bop"):
        "7ff9005f649df2c58b0da2555ea517d1dab4aace8c13b3c50fd585a9e89b5877",
    ("em3d", "ghb"):
        "0a9a56b837411654eadcb1a122f34aa7fca21db8a76985aeca30c18cf5f3ac23",
    ("em3d", "markov"):
        "4501dc941ae9c046071d44238c8edb93bd56164ba5d295f54e5821b60ad2c562",
    ("em3d", "nextline"):
        "60f78aad795c8d51e5883e9df22f0dda41cacf552c75544a431b10a56f48cf7a",
    ("em3d", "sandbox"):
        "9df7410145f8a1b3b028e803110ff9dd43bf677a9dc1606b2f4f32ea22a85e43",
    ("em3d", "spp"):
        "fa5f08a1eaab05c89b2275ea3a39b5860d8df739f0f8b86f38e591962872574b",
    ("em3d", "stride"):
        "e2ca5e65e2047422589288139aeaf552cb10963f10e564e323053bffea0a5be3",
    ("em3d", "vldp"):
        "e7f26d824067efc54a460ef474387ed73bb4816dc39b84a0ffdbdbd0dae44e90",
    ("sat_solver", "ampm"):
        "561e686b621fdcec50b39fdb19a450d4b9b551af0082fd5b4f49760a7c417215",
    ("sat_solver", "bop"):
        "119b16cdcdb7dc1d8f3e191a50acffad1ce92ef8c51a25142abeda4fab9cf50e",
    ("sat_solver", "ghb"):
        "ff6077e1dafa4c2475a373e5f27c82b618480d98ac9104044cef0b3aaacfc9b4",
    ("sat_solver", "markov"):
        "31b0d78dd1a28ac805455cbf6f7e7838a0670cb774e68078a9939e6e17626a13",
    ("sat_solver", "nextline"):
        "58af9383f8a523b535936923b9473aaab02e2a931a82e118a824ca4a0d273fc0",
    ("sat_solver", "sandbox"):
        "b75bab91bb42ef2e1c6a144f0e6b60164293cda8c2a5f4e01d59e84d65f799e6",
    ("sat_solver", "spp"):
        "391d83ef9bf14f4a34d2b0cde4d335d070cb889b0d1da52f58cc6574b36275ae",
    ("sat_solver", "stride"):
        "a7c353799853775ab046a41aea6731f4682305e91aae8ac8b5949fb6a40cf644",
    ("sat_solver", "vldp"):
        "9210359dceb95b6a32463f89b963d713c75b37946876bce5274a68eea4b5f8d7",
}


@functools.lru_cache(maxsize=None)
def _run(workload, prefetcher):
    return run_simulation(
        workload,
        prefetcher=prefetcher,
        system=small_system(num_cores=4),
        instructions_per_core=8000,
        warmup_instructions=1000,
        seed=11,
        scale=0.02,
    )


def _digest(result):
    encoded = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


@pytest.mark.parametrize("workload, prefetcher", sorted(DIGESTS))
def test_result_matches_pinned_digest(workload, prefetcher):
    assert _digest(_run(workload, prefetcher)) == DIGESTS[workload, prefetcher]


@pytest.mark.parametrize("prefetcher", PREFETCHERS)
def test_pins_exercise_the_prefetch_path(prefetcher):
    """Each pinned prefetcher issues prefetches over the three workloads,
    so its digests cover its candidates, not only its training."""
    assert sum(_run(w, prefetcher).prefetches_issued for w in WORKLOADS) > 0
