"""One benchmark step in a fresh interpreter; prints its result as JSON.

Started by ``run.py`` with the isolation environment already set::

    python3 perfbench/work.py <task> --seed N [--seconds S] [--dir D]

Tasks: ``probe`` (start-up and import only), ``study``, ``study_traced``,
``reference``, ``sharded``, ``sharded_traced``, ``payloads``,
``service_reference``, ``service`` and ``service_traced``.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from measure import emit


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("task")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--dir", type=Path)
    args = parser.parse_args()

    if args.task == "probe":
        import repro.figures.suite  # noqa: F401
        import repro.service.app  # noqa: F401
        import repro.study  # noqa: F401

        emit({})
        return
    if args.task == "payloads":
        import service_tasks

        emit(service_tasks.payloads(args.seed, args.dir))
    elif args.task == "service_reference":
        import service_tasks

        emit(service_tasks.service_reference())
    elif args.task in ("service", "service_traced"):
        import service_tasks

        emit(service_tasks.service(
            args.seed, args.seconds, args.dir,
            traced=args.task == "service_traced",
        ))
    elif args.task in (
        "study", "study_traced", "sharded", "sharded_traced", "reference",
    ):
        import study_tasks

        emit(getattr(study_tasks, args.task)())
    else:
        parser.error(f"unknown task {args.task!r}")


if __name__ == "__main__":
    main()
