import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_layout_names_every_module():
    section = (ROOT / "README.md").read_text().split("## Layout", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    listed = re.findall(r"^  (\w+\.py) ", block, re.M)
    modules = [p.name for p in (ROOT / "src" / "ddpm1d").glob("*.py")]
    assert sorted(listed) == sorted(m for m in modules if not m.startswith("__"))
