"""perfbench: the layered SSRQ benchmark (see README.md; run ``run.py``)."""
