"""No run fills the shared empty set.

Every set of every :class:`~repro.memsys.cache.Cache` and
:class:`~repro.common.table.SetAssociativeTable` starts as
``repro.common.table.EMPTY_SET``, one ``OrderedDict`` shared by all of
them; a set's first fill replaces it with one of its own.  A write into
the shared set would leak entries into every other set of every run, so
each case runs a job and asserts that the shared set is still empty.
"""

import pytest

from repro.common.table import EMPTY_SET
from repro.memsys.replacement import available_replacements
from repro.prefetchers.registry import available_prefetchers
from repro.sim.executor import SimJob, execute_job

QUICK = dict(instructions_per_core=1500, warmup_instructions=300)


@pytest.mark.parametrize("prefetcher", available_prefetchers())
def test_every_prefetcher(prefetcher):
    execute_job(SimJob.build("mix3", prefetcher, **QUICK))
    assert not EMPTY_SET


@pytest.mark.parametrize("replacement", available_replacements())
def test_every_llc_policy(replacement):
    execute_job(SimJob.build("zipf", "bingo", replacement=replacement, **QUICK))
    assert not EMPTY_SET


def test_l1_training():
    execute_job(SimJob.build("mix3", "sms", train_at="l1", **QUICK))
    assert not EMPTY_SET
