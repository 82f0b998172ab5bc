"""Golden digests of the tiny study: byte identity across commits.

The differential suites prove that every execution path (sharded, served,
cached, pooled) agrees with the monolithic build *of the same commit*.
They cannot catch a change that moves the monolithic bytes themselves.
These digests pin the tiny study (seed 7) as released, enriched and
rendered, so an optimisation that claims identical output must leave every
one of them unchanged.

When a change moves these bytes on purpose (a new calibration, a new
figure), re-record the digests with ``compute_digests()`` and say why in
the change's notes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.study import build_study

#: Digests recorded for ``build_study("tiny", seed=7)``; stable across
#: ``PYTHONHASHSEED`` values and ``REPRO_WORKERS`` settings.
GOLDEN = {
    "batch_catalog": (
        "a5a2e2445ce83335c3735ddae9c7b72d"
        "5cfb7e9a589c8240d745a3ed38f31c4d"
    ),
    "instances": (
        "b4993db4f54905a06c37b5490de4c4ad"
        "e6668ee61b9e054207eed545bf0fa7dc"
    ),
    "batch_html": (
        "89186e3fbe3714d7135846752845aab9"
        "133500ff02b13fe4ca362d2dfaa9522b"
    ),
    "batch_table": (
        "c6e94e23661b9f3881064103d5cc3141"
        "908711de8866ca4d4a8d11ae9999e416"
    ),
    "cluster_table": (
        "da38a8e0d06011184ae91bee94d7d013"
        "50e0bb7e86f9aae825e725dba0d35592"
    ),
    "labels": (
        "2af79b0eea0fe09e3e75197225305797"
        "13fb4ee3456e4c404453530f8b7dd814"
    ),
    "cluster_of_batch": (
        "61ddbccce7389bcdd3efbc0dda9f0aea"
        "6f26d28e334d535f35b3e9517f21957f"
    ),
    "figures": (
        "58ca291b7a4993a3f7906b0611eaabb4"
        "ead74723fa5f601d4748c99b73c183b8"
    ),
}


#: sha-256 of each instance aggregate's served body for the same study.
STREAM_GOLDEN = {
    "batch_rollup": (
        "1cd5400fd207df2af5f9a673efcf5b79"
        "c257c71e301aba9dfdd9384b891facb5"
    ),
    "trust_cdf": (
        "7a89f64e0044f2c84d7565025040c6ff"
        "5c724765bc1832c43cabebb27082e694"
    ),
    "duration_hist": (
        "5bf21cc3bf68fb08ac63b27767953c18"
        "da46532dad8bc2002c0b4e1a6729aa25"
    ),
}


def table_digest(table) -> str:
    """SHA-256 over a table's column names, dtypes and values, in order."""
    digest = hashlib.sha256()
    for name in table.column_names:
        array = np.asarray(table[name])
        digest.update(f"{name}:{array.dtype}:{len(array)}\n".encode())
        if array.dtype == object:
            digest.update("\x1f".join(map(repr, array.tolist())).encode())
        else:
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def mapping_digest(mapping: dict) -> str:
    items = sorted((int(k), v) for k, v in mapping.items())
    return hashlib.sha256(repr(items).encode()).hexdigest()


def figures_digest(study) -> str:
    """SHA-256 over every served figure body, then the fidelity body."""
    from repro.figures.suite import FigureSuite
    from repro.service.app import fidelity_body, figure_body, figure_names

    figures = FigureSuite(
        state=study.state, released=study.released, enriched=study.enriched
    )
    digest = hashlib.sha256()
    for name in figure_names():
        body = figure_body(getattr(figures, name)())
        digest.update(f"{name}:{len(body)}\n".encode())
        digest.update(body)
    digest.update(fidelity_body(figures))
    return digest.hexdigest()


def stream_digests(study) -> dict[str, str]:
    """SHA-256 of each served instance-aggregate body
    (``/tables/batch_rollup``, ``/tables/trust_cdf``,
    ``/tables/duration_hist``), computed from the released instances."""
    from repro.service.app import table_body
    from repro.service.state import (
        batch_rollup, duration_hist_table, duration_histogram,
        trust_cdf_table,
    )
    from repro.stats.cdf import EmpiricalCDF

    instances = study.released.instances
    tables = {
        "batch_rollup": batch_rollup(instances),
        "trust_cdf": trust_cdf_table(
            EmpiricalCDF.from_sample(instances["trust"])
        ),
        "duration_hist": duration_hist_table(duration_histogram(instances)),
    }
    return {
        name: hashlib.sha256(table_body(table)).hexdigest()
        for name, table in tables.items()
    }


def compute_digests(study) -> dict[str, str]:
    released, enriched = study.released, study.enriched
    return {
        "batch_catalog": table_digest(released.batch_catalog),
        "instances": table_digest(released.instances),
        "batch_html": mapping_digest(released.batch_html),
        "batch_table": table_digest(enriched.batch_table),
        "cluster_table": table_digest(enriched.cluster_table),
        "labels": table_digest(enriched.labels),
        "cluster_of_batch": mapping_digest(enriched.cluster_of_batch),
        "figures": figures_digest(study),
    }


@pytest.fixture(scope="module")
def study():
    return build_study("tiny", seed=7, cache=False)


@pytest.fixture(scope="module")
def digests(study):
    return compute_digests(study)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_tiny_study_digest(digests, name):
    assert digests[name] == GOLDEN[name], f"{name} bytes moved"


@pytest.fixture(scope="module")
def streams(study):
    return stream_digests(study)


@pytest.mark.parametrize("name", sorted(STREAM_GOLDEN))
def test_stream_tables(streams, name):
    assert streams[name] == STREAM_GOLDEN[name], f"{name} bytes moved"
