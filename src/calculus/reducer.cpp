#include "calculus/reducer.hpp"

#include <sstream>

#include "calculus/subst.hpp"
#include "support/arith.hpp"
#include "support/fmt.hpp"

namespace dityco::calc {

namespace {

std::string join_display(const std::vector<RVal>& vals) {
  std::string out;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (i) out += ' ';
    out += rval_display(vals[i]);
  }
  return out;
}

}  // namespace

std::string rval_display(const RVal& v) {
  return std::visit(
      [](const auto& x) -> std::string {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::int64_t>) {
          return std::to_string(x);
        } else if constexpr (std::is_same_v<T, bool>) {
          return x ? "true" : "false";
        } else if constexpr (std::is_same_v<T, double>) {
          return format_f64(x);
        } else if constexpr (std::is_same_v<T, std::string>) {
          return x;
        } else {
          return "#chan";
        }
      },
      v);
}

void Reducer::add_program(const std::string& site, ProcPtr p) {
  outputs_.try_emplace(site);
  spawn(Thread{site, std::move(p), nullptr});
}

const std::vector<std::string>& Reducer::output(const std::string& site) const {
  static const std::vector<std::string> empty;
  auto it = outputs_.find(site);
  return it == outputs_.end() ? empty : it->second;
}

std::vector<std::string> Reducer::pending_description() const {
  std::vector<std::string> out;
  for (const auto& [c, ch] : chans_) {
    if (ch.msgs.empty() && ch.objs.empty()) continue;
    std::string line = c.site + "." + c.uid + ": " +
                       std::to_string(ch.msgs.size()) + "msg/" +
                       std::to_string(ch.objs.size()) + "obj";
    for (const auto& m : ch.msgs) line += " !" + m.label;
    out.push_back(std::move(line));
  }
  return out;
}

void Reducer::register_metrics(obs::Registry& registry) {
  // Plain fields + container sizes: not safe to read mid-run, so a live
  // scrape skips this collector.
  metrics_reg_ = registry.add_collector(
      [this](obs::Collector& c) {
        c.counter("calc_comm_reductions", counters_.comm);
        c.counter("calc_inst_reductions", counters_.inst);
        c.counter("calc_shipm", counters_.shipm);
        c.counter("calc_shipo", counters_.shipo);
        c.counter("calc_fetch", counters_.fetch);
        c.counter("calc_admin_steps", counters_.admin);
        c.gauge("calc_runnable", static_cast<std::int64_t>(queue_.size()));
      },
      /*live_safe=*/false);
}

std::vector<std::string> Reducer::sites() const {
  std::vector<std::string> out;
  out.reserve(outputs_.size());
  for (const auto& [s, _] : outputs_) out.push_back(s);
  return out;
}

RVal Reducer::resolve_val(const NameRef& r, const EnvPtr& env,
                                   const std::string& site) {
  if (!r.located()) {
    for (const Env* e = env.get(); e != nullptr; e = e->parent.get()) {
      auto it = e->vars.find(r.name);
      if (it != e->vars.end()) return it->second;
    }
    // Free simple names are implicitly located at the current site.
    return Chan{site, r.name};
  }
  return Chan{*r.site, r.name};
}

Chan Reducer::resolve_chan(const NameRef& r, const EnvPtr& env,
                           const std::string& site) {
  RVal v = resolve_val(r, env, site);
  if (auto* c = std::get_if<Chan>(&v)) return *c;
  throw EvalError{"name '" + r.name + "' is bound to a non-channel value"};
}

RVal Reducer::eval(const Expr& e, const EnvPtr& env, const std::string& site) {
  return std::visit(
      [&](const auto& n) -> RVal {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, Expr::IntLit>) {
          return n.v;
        } else if constexpr (std::is_same_v<T, Expr::BoolLit>) {
          return n.v;
        } else if constexpr (std::is_same_v<T, Expr::FloatLit>) {
          return n.v;
        } else if constexpr (std::is_same_v<T, Expr::StrLit>) {
          return n.v;
        } else if constexpr (std::is_same_v<T, Expr::Var>) {
          return resolve_val(n.ref, env, site);
        } else if constexpr (std::is_same_v<T, Expr::Unop>) {
          RVal v = eval(*n.e, env, site);
          if (n.op == "-") {
            if (auto* i = std::get_if<std::int64_t>(&v)) return wrap::neg(*i);
            if (auto* f = std::get_if<double>(&v)) return -*f;
          } else if (n.op == "!") {
            if (auto* b = std::get_if<bool>(&v)) return !*b;
          }
          throw EvalError{"bad operand for unary " + n.op};
        } else if constexpr (std::is_same_v<T, Expr::Binop>) {
          RVal l = eval(*n.l, env, site);
          RVal r = eval(*n.r, env, site);
          const std::string& op = n.op;
          if (op == "&&" || op == "||") {
            auto* lb = std::get_if<bool>(&l);
            auto* rb = std::get_if<bool>(&r);
            if (!lb || !rb) throw EvalError{"non-boolean operand for " + op};
            return op == "&&" ? (*lb && *rb) : (*lb || *rb);
          }
          if (op == "++") {
            auto* ls = std::get_if<std::string>(&l);
            auto* rs = std::get_if<std::string>(&r);
            if (ls && rs) return *ls + *rs;
            throw EvalError{"non-string operand for ++"};
          }
          if (op == "==" || op == "!=") {
            const bool eq = l == r;
            return op == "==" ? eq : !eq;
          }
          // Arithmetic / relational: ints, or mixed numeric promoting to
          // double.
          auto* li = std::get_if<std::int64_t>(&l);
          auto* ri = std::get_if<std::int64_t>(&r);
          if (li && ri) {
            std::int64_t a = *li, b = *ri;
            if (op == "+") return wrap::add(a, b);
            if (op == "-") return wrap::sub(a, b);
            if (op == "*") return wrap::mul(a, b);
            if (op == "/") {
              if (b == 0) throw EvalError{"integer division by zero"};
              return wrap::div(a, b);
            }
            if (op == "%") {
              if (b == 0) throw EvalError{"integer modulo by zero"};
              return wrap::mod(a, b);
            }
            if (op == "<") return a < b;
            if (op == "<=") return a <= b;
            if (op == ">") return a > b;
            if (op == ">=") return a >= b;
            throw EvalError{"unknown operator " + op};
          }
          auto as_num = [](const RVal& v, const std::string& op) -> double {
            if (auto* i = std::get_if<std::int64_t>(&v))
              return static_cast<double>(*i);
            if (auto* f = std::get_if<double>(&v)) return *f;
            throw EvalError{"non-numeric operand for " + op};
          };
          const double a = as_num(l, op), b = as_num(r, op);
          if (op == "+") return a + b;
          if (op == "-") return a - b;
          if (op == "*") return a * b;
          if (op == "/") return a / b;
          if (op == "<") return a < b;
          if (op == "<=") return a <= b;
          if (op == ">") return a > b;
          if (op == ">=") return a >= b;
          throw EvalError{"unknown operator " + op};
        } else {
          throw EvalError{"unreachable expression form"};
        }
      },
      e.node);
}

void Reducer::try_reduce(const Chan& c) {
  auto it = chans_.find(c);
  if (it == chans_.end()) return;
  Channel& ch = it->second;
  while (!ch.msgs.empty() && !ch.objs.empty()) {
    PendingObj obj = std::move(ch.objs.front());
    ch.objs.pop_front();
    PendingMsg msg = std::move(ch.msgs.front());
    ch.msgs.pop_front();

    const Abstraction* method = nullptr;
    for (const auto& m : obj.methods)
      if (m.name == msg.label) {
        method = &m;
        break;
      }
    if (method == nullptr) {
      errors_.push_back("method not understood: " + msg.label + " at " +
                        c.site + "." + c.uid);
      // The object stays available for subsequent messages; the offending
      // message is dropped (static typing rules this out for checked
      // programs).
      ch.objs.push_front(std::move(obj));
      continue;
    }
    if (method->params.size() != msg.args.size()) {
      errors_.push_back("arity mismatch on " + msg.label + " at " + c.site +
                        "." + c.uid);
      ch.objs.push_front(std::move(obj));
      continue;
    }
    auto env = std::make_shared<Env>();
    env->parent = obj.env;
    for (std::size_t i = 0; i < method->params.size(); ++i)
      env->vars[method->params[i]] = std::move(msg.args[i]);
    ++counters_.comm;
    // Reduction happens at the channel's site (rule LOC after SHIP*).
    spawn(Thread{c.site, method->body, std::move(env)});
  }
}

void Reducer::park_on_class(const std::string& site, const std::string& name,
                            Thread t) {
  class_waiters_[{site, name}].push_back(std::move(t));
}

void Reducer::release_class_waiters(const std::string& site,
                                    const std::string& name) {
  auto it = class_waiters_.find({site, name});
  if (it == class_waiters_.end()) return;
  for (auto& t : it->second) spawn(std::move(t));
  class_waiters_.erase(it);
}

void Reducer::step(Thread t) {
  // Interpret administrative forms inline until the thread dissolves into
  // prefix processes (message / object / instantiation) or terminates.
  for (;;) {
    ++counters_.admin;
    const Proc& p = *t.proc;
    if (std::holds_alternative<Proc::Nil>(p.node)) return;

    if (const auto* par = std::get_if<Proc::Par>(&p.node)) {
      spawn(Thread{t.site, par->right, t.env});
      t.proc = par->left;
      continue;
    }
    if (const auto* nu = std::get_if<Proc::New>(&p.node)) {
      auto env = std::make_shared<Env>();
      env->parent = t.env;
      for (const auto& x : nu->names)
        env->vars[x] = Chan{t.site, fresh_name(x)};
      t.env = std::move(env);
      t.proc = nu->body;
      continue;
    }
    if (const auto* ex = std::get_if<Proc::ExportNew>(&p.node)) {
      auto env = std::make_shared<Env>();
      env->parent = t.env;
      // Exported names keep their lexeme as public identity: any site that
      // resolves s.x reaches this channel.
      for (const auto& x : ex->names) env->vars[x] = Chan{t.site, x};
      t.env = std::move(env);
      t.proc = ex->body;
      continue;
    }
    if (const auto* d = std::get_if<Proc::Def>(&p.node)) {
      auto env = std::make_shared<Env>();
      env->parent = t.env;
      for (const auto& def : d->defs) {
        auto cls = std::make_shared<ClassClosure>();
        cls->def_site = t.site;
        cls->name = def.name;
        cls->params = def.params;
        cls->body = def.body;
        cls->env = env;  // cyclic: enables mutual recursion
        env->classes[def.name] = cls;
      }
      t.env = std::move(env);
      t.proc = d->body;
      continue;
    }
    if (const auto* d = std::get_if<Proc::ExportDef>(&p.node)) {
      auto env = std::make_shared<Env>();
      env->parent = t.env;
      for (const auto& def : d->defs) {
        auto cls = std::make_shared<ClassClosure>();
        cls->def_site = t.site;
        cls->name = def.name;
        cls->params = def.params;
        cls->body = def.body;
        cls->env = env;
        env->classes[def.name] = cls;
        exported_classes_[{t.site, def.name}] = cls;
        release_class_waiters(t.site, def.name);
      }
      t.env = std::move(env);
      t.proc = d->body;
      continue;
    }
    if (const auto* im = std::get_if<Proc::ImportName>(&p.node)) {
      auto env = std::make_shared<Env>();
      env->parent = t.env;
      env->vars[im->name] = Chan{im->site, im->name};
      t.env = std::move(env);
      t.proc = im->body;
      continue;
    }
    if (const auto* im = std::get_if<Proc::ImportClass>(&p.node)) {
      auto env = std::make_shared<Env>();
      env->parent = t.env;
      env->classes[im->name] = RemoteClass{im->site, im->name};
      t.env = std::move(env);
      t.proc = im->body;
      continue;
    }
    try {
      if (const auto* iff = std::get_if<Proc::If>(&p.node)) {
        RVal c = eval(*iff->cond, t.env, t.site);
        auto* b = std::get_if<bool>(&c);
        if (!b) throw EvalError{"non-boolean condition"};
        t.proc = *b ? iff->then_p : iff->else_p;
        continue;
      }
      if (const auto* pr = std::get_if<Proc::Print>(&p.node)) {
        std::vector<RVal> vals;
        vals.reserve(pr->args.size());
        for (const auto& a : pr->args) vals.push_back(eval(*a, t.env, t.site));
        outputs_[t.site].push_back(join_display(vals));
        t.proc = pr->cont;
        continue;
      }
      if (const auto* m = std::get_if<Proc::Msg>(&p.node)) {
        Chan c = resolve_chan(m->target, t.env, t.site);
        std::vector<RVal> args;
        args.reserve(m->args.size());
        for (const auto& a : m->args) args.push_back(eval(*a, t.env, t.site));
        if (c.site != t.site) ++counters_.shipm;  // rule SHIPM
        chans_[c].msgs.push_back(PendingMsg{m->label, std::move(args)});
        try_reduce(c);
        return;
      }
      if (const auto* o = std::get_if<Proc::Obj>(&p.node)) {
        Chan c = resolve_chan(o->target, t.env, t.site);
        if (c.site != t.site) ++counters_.shipo;  // rule SHIPO
        chans_[c].objs.push_back(PendingObj{t.site, o->methods, t.env});
        try_reduce(c);
        return;
      }
      if (const auto* in = std::get_if<Proc::Inst>(&p.node)) {
        // Resolve the class binding through the lexical environment.
        ClassBinding binding;
        bool found = false;
        if (in->cls.located()) {
          binding = RemoteClass{*in->cls.site, in->cls.name};
          found = true;
        } else {
          for (const Env* e = t.env.get(); e != nullptr;
               e = e->parent.get()) {
            auto it = e->classes.find(in->cls.name);
            if (it != e->classes.end()) {
              binding = it->second;
              found = true;
              break;
            }
          }
        }
        if (!found) throw EvalError{"unbound class " + in->cls.name};

        ClassPtr cls;
        if (auto* local = std::get_if<ClassPtr>(&binding)) {
          cls = *local;
        } else {
          const auto& rc = std::get<RemoteClass>(binding);
          auto it = exported_classes_.find({rc.site, rc.name});
          if (it == exported_classes_.end()) {
            // The defining site has not exported the class yet: park until
            // it does (the implementation's blocking import).
            park_on_class(rc.site, rc.name, std::move(t));
            return;
          }
          cls = it->second;
        }
        if (cls->params.size() != in->args.size())
          throw EvalError{"arity mismatch instantiating " + cls->name};
        // FETCH accounting: first time this site links code defined
        // elsewhere (the implementation's dynamic-link cache).
        if (cls->def_site != t.site &&
            linked_.insert({t.site, cls->env.get()}).second)
          ++counters_.fetch;
        auto env = std::make_shared<Env>();
        env->parent = cls->env;
        for (std::size_t i = 0; i < cls->params.size(); ++i)
          env->vars[cls->params[i]] = eval(*in->args[i], t.env, t.site);
        ++counters_.inst;
        spawn(Thread{t.site, cls->body, std::move(env)});
        return;
      }
    } catch (const EvalError& err) {
      errors_.push_back(t.site + ": " + err.what);
      return;
    }
    errors_.push_back(t.site + ": unhandled process form");
    return;
  }
}

Reducer::Result Reducer::run() {
  Result res;
  std::uint64_t steps = 0;
  while (!queue_.empty()) {
    if (++steps > cfg_.max_steps) {
      res.budget_exhausted = true;
      break;
    }
    Thread t = std::move(queue_.front());
    queue_.pop_front();
    step(std::move(t));
  }
  for (const auto& [c, ch] : chans_) {
    res.pending_messages += ch.msgs.size();
    res.pending_objects += ch.objs.size();
  }
  res.stalled = !class_waiters_.empty() && queue_.empty();
  res.quiescent = queue_.empty() && !res.stalled && !res.budget_exhausted;
  res.counters = counters_;
  res.errors = errors_;
  return res;
}

}  // namespace dityco::calc
