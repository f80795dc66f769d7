#include "gen.h"

#include <cstdio>

namespace perfbench {

namespace {

constexpr int kModules = 12;
constexpr int kMids = 3;
constexpr int kLeaves = 7;
constexpr int kN = 24;  // loop trip count; arrays hold 2 * kN

std::string two(int m) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "%02d", m);
  return buf;
}

// Builds one unit's text around its single editable literal.
class UnitWriter {
 public:
  void line(const std::string& l) { cur_ += l + "\n"; }
  // `before`, then the coefficient, then `after` and a newline.
  void coeff(const std::string& before, const std::string& after) {
    head_ = cur_ + before;
    cur_ = after + "\n";
  }
  int label() { return label_ += 10; }
  std::pair<std::string, std::string> finish() { return {head_, cur_}; }

 private:
  std::string head_, cur_;
  int label_ = 0;
};

struct Block {
  std::string a, b, c, s, decl;
};

Block block(int m) {
  std::string k = std::to_string(m);
  Block bl{"A" + k, "B" + k, "C" + k, "S" + k, ""};
  bl.decl = "      COMMON /M" + k + "/ " + bl.a + "(" + std::to_string(2 * kN) +
            "), " + bl.b + "(" + std::to_string(2 * kN) + "), " + bl.c + "(" +
            std::to_string(2 * kN) + "), " + bl.s;
  return bl;
}

class ModuleGen {
 public:
  ModuleGen(Rng& rng, UnitWriter& w, const Block& bl) : rng_(rng), w_(w), bl_(bl) {}

  std::string arr() {
    switch (rng_.range(0, 2)) {
      case 0: return bl_.a;
      case 1: return bl_.b;
      default: return bl_.c;
    }
  }
  std::string sub(const std::string& v) {
    switch (rng_.range(0, 3)) {
      case 0: return v;
      case 1: return v + " + " + std::to_string(rng_.range(1, kN));
      case 2: return std::to_string(kN + 1) + " - " + v;
      default: return std::to_string(rng_.range(1, 2 * kN));
    }
  }

  // The unit's first loop carries the editable coefficient.
  void coeff_loop() {
    int l = w_.label();
    std::string t = arr();
    w_.line("      DO " + std::to_string(l) + " I = 1, " + std::to_string(kN));
    std::string rhs = arr() + "(" + sub("I") + ") * ";
    w_.coeff("        " + t + "(I) = " + rhs, " + 0.5D0");
    w_.line(std::to_string(l) + "   CONTINUE");
  }

  // One more loop of a seeded kind: parallel, reduction, carried
  // dependence (must stay serial), private temporary or 2-D nest.
  void loop() {
    int l = w_.label();
    std::string t = arr();
    std::string hdr = "      DO " + std::to_string(l) + " I = 1, " + std::to_string(kN);
    switch (rng_.range(0, 4)) {
      case 0:
        w_.line(hdr);
        w_.line("        " + t + "(I) = " + arr() + "(" + sub("I") + ") * 0.25D0 + I");
        break;
      case 1:
        w_.line(hdr);
        w_.line("        " + bl_.s + " = " + bl_.s + " + " + arr() + "(I)");
        break;
      case 2:
        w_.line("      DO " + std::to_string(l) + " I = 2, " + std::to_string(kN));
        w_.line("        " + t + "(I) = " + t + "(I - 1) * 0.5D0 + 1.0D0");
        break;
      case 3:
        w_.line(hdr);
        w_.line("        T = " + arr() + "(" + sub("I") + ") + 2.0D0");
        w_.line("        " + t + "(I) = T * T");
        break;
      default: {
        int li = w_.label();
        w_.line("      DO " + std::to_string(l) + " J = 1, 2");
        w_.line("      DO " + std::to_string(li) + " I = 1, " + std::to_string(kN));
        w_.line("        " + t + "(I + " + std::to_string(kN) + " * (J - 1)) = " +
                arr() + "(I) * 0.5D0 + J");
        w_.line(std::to_string(li) + "   CONTINUE");
        break;
      }
    }
    w_.line(std::to_string(l) + "   CONTINUE");
  }

 private:
  Rng& rng_;
  UnitWriter& w_;
  const Block& bl_;
};

}  // namespace

EditProgram::EditProgram(uint64_t seed) {
  Rng rng(seed ^ 0x5EEDED17ull);
  auto base_coeff = [&] { return "0." + std::to_string(rng.range(100, 999)) + "D0"; };
  auto add = [&](const std::string& name, UnitWriter& w) {
    auto [head, tail] = w.finish();
    units_.push_back({head, tail, base_coeff()});
    names_.push_back(name);
  };

  // Main program: initializes every block, calls every module root and
  // writes a checksum.
  {
    UnitWriter w;
    w.line("      PROGRAM GEN");
    for (int m = 0; m < kModules; ++m) w.line(block(m).decl);
    w.line("      DOUBLE PRECISION CHK");
    w.line("      DO 1 I = 1, " + std::to_string(2 * kN));
    for (int m = 0; m < kModules; ++m) {
      Block bl = block(m);
      if (m == 0) {
        w.coeff("        " + bl.a + "(I) = I * ", "");
      } else {
        w.line("        " + bl.a + "(I) = I * 0.0" + std::to_string(m % 9 + 1) + "D0");
      }
      w.line("        " + bl.b + "(I) = I * 0.02D0 + 1.0D0");
      w.line("        " + bl.c + "(I) = 0.0D0");
    }
    w.line("1     CONTINUE");
    for (int m = 0; m < kModules; ++m) {
      w.line("      " + block(m).s + " = 0.0D0");
      w.line("      CALL RT" + two(m));
    }
    w.line("      CHK = 0.0D0");
    w.line("      DO 2 I = 1, " + std::to_string(2 * kN));
    for (int m = 0; m < kModules; ++m) {
      Block bl = block(m);
      w.line("        CHK = CHK + " + bl.a + "(I) + " + bl.b + "(I) + " + bl.c + "(I)");
    }
    w.line("2     CONTINUE");
    for (int m = 0; m < kModules; ++m) w.line("      CHK = CHK + " + block(m).s);
    w.line("      WRITE(*,*) 'CHK', CHK");
    w.line("      END");
    add("GEN", w);
  }

  for (int m = 0; m < kModules; ++m) {
    Block bl = block(m);
    std::string mm = two(m);
    // Root: a coefficient loop, calls to the three mids, one more loop.
    {
      UnitWriter w;
      ModuleGen g(rng, w, bl);
      w.line("      SUBROUTINE RT" + mm);
      w.line(bl.decl);
      g.coeff_loop();
      for (int k = 0; k < kMids; ++k) w.line("      CALL MD" + mm + std::to_string(k));
      g.loop();
      w.line("      END");
      add("RT" + mm, w);
    }
    // Mids: a coefficient loop, one leaf called per iteration, two leaves
    // called once, one more loop.
    for (int k = 0; k < kMids; ++k) {
      UnitWriter w;
      ModuleGen g(rng, w, bl);
      std::vector<int> leaves;
      for (int i = 0; i < kLeaves; ++i) leaves.push_back(i);
      rng.shuffle(leaves);
      w.line("      SUBROUTINE MD" + mm + std::to_string(k));
      w.line(bl.decl);
      g.coeff_loop();
      int l = w.label();
      w.line("      DO " + std::to_string(l) + " I = 1, " + std::to_string(kN));
      w.line("        CALL LF" + mm + std::to_string(leaves[0]) + "(I)");
      w.line(std::to_string(l) + "   CONTINUE");
      for (int i = 1; i <= 2; ++i)
        w.line("      CALL LF" + mm + std::to_string(leaves[static_cast<size_t>(i)]) +
               "(" + std::to_string(rng.range(1, kN)) + ")");
      g.loop();
      w.line("      END");
      add("MD" + mm + std::to_string(k), w);
    }
    // Leaves: a pointwise update at K (the caller's iteration); the even
    // ones also run a loop of their own.
    for (int k = 0; k < kLeaves; ++k) {
      UnitWriter w;
      ModuleGen g(rng, w, bl);
      std::string t = g.arr();
      w.line("      SUBROUTINE LF" + mm + std::to_string(k) + "(K)");
      w.line("      INTEGER K");
      w.line(bl.decl);
      w.coeff("      " + t + "(K) = " + t + "(K) * ",
              " + " + g.arr() + "(K + " + std::to_string(kN) + ")");
      if (k % 2 == 0) g.loop();
      w.line("      END");
      add("LF" + mm + std::to_string(k), w);
    }
  }
}

std::string EditProgram::render(size_t edited, const std::string& literal) const {
  std::string out;
  out.reserve(units_.size() * 512);
  for (size_t u = 0; u < units_.size(); ++u) {
    out += units_[u].head;
    out += u == edited ? literal : units_[u].coeff;
    out += units_[u].tail;
  }
  return out;
}

std::string EditProgram::base_source() const { return render(units_.size(), ""); }

std::string EditProgram::edited_source(size_t u, const std::string& literal) const {
  return render(u, literal);
}

std::string fresh_literal(Rng& rng, uint64_t sequence) {
  return std::to_string(sequence + 1) + "." + std::to_string(rng.range(100, 999)) + "D-5";
}

}  // namespace perfbench
