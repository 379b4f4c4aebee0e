package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// The docs lint: every relative link in every tracked markdown file must
// resolve to a real file or directory, and every #anchor — own-file or
// cross-file — must match a heading in its target. External (http, https,
// mailto) links are out of scope; links inside fenced code blocks are
// ignored. `make docs-lint` runs exactly this test.

// mdFiles lists the repository's markdown files, skipping VCS and vendor
// droppings.
func mdFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".claude", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found")
	}
	return files
}

// headingSlug reproduces GitHub's anchor slug for a heading: lowercase,
// punctuation stripped, spaces to hyphens (hyphens and underscores kept).
func headingSlug(heading string) string {
	heading = strings.TrimSpace(heading)
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// mdOutsideFences returns the file's lines with fenced code blocks
// blanked, so neither links nor #-prefixed code comments inside fences
// are misread as markdown.
func mdOutsideFences(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	inFence := false
	out := make([]string, len(lines))
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			out[i] = line
		}
	}
	return out
}

// mdAnchors collects the slugs of a markdown file's headings.
func mdAnchors(t *testing.T, path string) map[string]bool {
	t.Helper()
	anchors := make(map[string]bool)
	for _, line := range mdOutsideFences(t, path) {
		trimmed := strings.TrimSpace(line)
		level := 0
		for level < len(trimmed) && trimmed[level] == '#' {
			level++
		}
		if level == 0 || level > 6 || level == len(trimmed) || trimmed[level] != ' ' {
			continue
		}
		anchors[headingSlug(trimmed[level+1:])] = true
	}
	return anchors
}

// mdLinkRE matches inline links, with or without a quoted title:
// [text](target) and [text](target "title"). The capture is the target.
var mdLinkRE = regexp.MustCompile(`\[[^\]]*\]\(\s*([^)\s]+)(?:\s+"[^"]*")?\s*\)`)

// mdRefLinkRE detects reference-style links ([text][ref]), which this
// lint does not resolve; they fail loudly instead of passing unchecked.
var mdRefLinkRE = regexp.MustCompile(`\[[^\]]*\]\[[^\]]*\]`)

// mdCodeSpanRE matches an inline code span; markdown renders its contents
// verbatim, so an index expression like `f[i](x)` there is not a link.
var mdCodeSpanRE = regexp.MustCompile("`[^`]*`")

func TestMarkdownDocs(t *testing.T) {
	for _, file := range mdFiles(t) {
		file := file
		t.Run(filepath.ToSlash(file), func(t *testing.T) {
			ownAnchors := mdAnchors(t, file)
			for lineNo, line := range mdOutsideFences(t, file) {
				line = mdCodeSpanRE.ReplaceAllString(line, "")
				if m := mdRefLinkRE.FindString(line); m != "" {
					t.Errorf("%s:%d: reference-style link %q is not supported by the docs lint; use an inline link", file, lineNo+1, m)
				}
				for _, m := range mdLinkRE.FindAllStringSubmatch(line, -1) {
					target := m[1]
					if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
						continue
					}
					path, anchor, _ := strings.Cut(target, "#")
					if path == "" {
						// Own-file anchor.
						if !ownAnchors[anchor] {
							t.Errorf("%s:%d: anchor #%s matches no heading", file, lineNo+1, anchor)
						}
						continue
					}
					resolved := filepath.Join(filepath.Dir(file), filepath.FromSlash(path))
					info, err := os.Stat(resolved)
					if err != nil {
						t.Errorf("%s:%d: link target %q does not exist", file, lineNo+1, target)
						continue
					}
					if anchor == "" {
						continue
					}
					if info.IsDir() || !strings.EqualFold(filepath.Ext(resolved), ".md") {
						t.Errorf("%s:%d: anchor on non-markdown target %q", file, lineNo+1, target)
						continue
					}
					if !mdAnchors(t, resolved)[anchor] {
						t.Errorf("%s:%d: anchor #%s matches no heading in %s", file, lineNo+1, anchor, path)
					}
				}
			}
		})
	}
}
