"""Batch cleaning: all five registry benchmarks through the concurrent service.

Run with::

    PYTHONPATH=src python examples/batch_service.py

Every dataset becomes one job on a 4-worker :class:`repro.CleaningService`.
Each job cleans in a fully isolated database/context with its own simulated
LLM; all jobs share one thread-safe prompt cache, so repeated prompts (same
column profile appearing in several tables, or re-runs) are answered without
another model call.  The demo finishes with the service-level metrics block
(throughput, latency, cache hit rate) that ``python -m repro.service`` also
prints.
"""

from repro import CleaningService, dataset_names, load_dataset
from repro.service import render_service_summary

SCALE = 0.2  # fraction of paper-scale rows, keeps the demo under a minute


def main() -> None:
    datasets = [load_dataset(name, scale=SCALE) for name in dataset_names()]
    print(f"Cleaning {len(datasets)} datasets concurrently "
          f"({sum(d.dirty.num_rows for d in datasets)} rows total)...\n")

    with CleaningService(workers=4) as service:
        jobs = [service.submit(dataset.dirty, name=dataset.name) for dataset in datasets]
        results = [job.wait() for job in jobs]

    for result in results:
        print(result.summary())

    print()
    print(render_service_summary(jobs, service.cache.stats()))


if __name__ == "__main__":
    main()
