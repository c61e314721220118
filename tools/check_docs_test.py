#!/usr/bin/env python3
"""Self-test of check_docs.py's doc-identifier check (stdlib unittest).

Run: python3 tools/check_docs_test.py

The deleted names are spelled by concatenation so that this file itself never
contains them: the check scans tools/ for identifiers, and a literal here
would make the planted name look alive.
"""

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import check_docs  # noqa: E402

DELETED_TYPE = "Fused" + "TrialEncoder"
DELETED_MEMBER = "gone" + "_member"


class DocIdentifierCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.words = check_docs.source_words()
        cls.docs = [(str(doc.relative_to(check_docs.REPO)), doc.read_text(encoding="utf-8"))
                    for doc in check_docs.doc_files()]

    def test_tree_is_clean(self):
        self.assertEqual(check_docs.check_identifiers(self.docs, self.words), [])

    def test_planted_deleted_type_fails(self):
        name, text = self.docs[-1]
        planted = self.docs[:-1] + [(name, text + f"\nThe `{DELETED_TYPE}` encodes trials.\n")]
        problems = check_docs.check_identifiers(planted, self.words)
        self.assertEqual(len(problems), 1)
        self.assertIn(DELETED_TYPE, problems[0])
        self.assertIn(name, problems[0])

    def test_qualified_forms_check_every_component(self):
        doc = [("x.md", f"`{DELETED_TYPE}::encode_query` and `HdClassifier::{DELETED_MEMBER}()`")]
        problems = check_docs.check_identifiers(doc, self.words)
        self.assertEqual(len(problems), 2)
        self.assertIn(DELETED_TYPE, problems[0])
        self.assertIn(DELETED_MEMBER, problems[1])

    def test_live_all_caps_and_fenced_names_pass(self):
        doc = [("x.md", "`StreamingEncoder::push`, `hd::HdClassifier`, `NULL`, `PHD3`, "
                        f"`snake_case_only`\n```cpp\n{DELETED_TYPE} e;\n```\n")]
        self.assertEqual(check_docs.check_identifiers(doc, self.words), [])


if __name__ == "__main__":
    unittest.main()
