"""The fenced code blocks of README.md, so tests run what the docs show."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(lang: str) -> list[str]:
    """Bodies of the README's ```lang blocks, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
