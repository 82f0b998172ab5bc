"""Task-interface HTML generation.

The marketplace released the raw HTML of one sample task instance per batch;
all §4 design parameters are extracted from it.  This subpackage *writes*
that HTML from a task's latent design features, such that
:func:`repro.html.extract_features` recovers the features — the enrichment
pipeline therefore runs on genuinely raw markup, exactly like the paper.
"""

from repro.htmlgen.render import render_task_html, render_task_template

__all__ = ["render_task_html", "render_task_template"]
